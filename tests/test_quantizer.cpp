#include "common/bits.hpp"
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/kernels_simd.hpp"
#include "core/quantizer.hpp"
#include "datasets/generators.hpp"

namespace fz {
namespace {

TEST(Prequantize, ErrorBoundInvariant) {
  Rng rng(1);
  std::vector<f32> data(10000);
  for (auto& v : data) v = static_cast<f32>(rng.uniform(-100.0, 100.0));
  // The reconstruction is rounded to f32, so the achievable bound is eb
  // plus half an ulp at the data magnitude (~100 here) — the same caveat
  // real SZ-family compressors carry for bounds near f32 precision.
  const double half_ulp = 100.0 * 6e-8;
  for (const double eb : {1.0, 0.1, 1e-3, 1e-5}) {
    std::vector<i64> p(data.size());
    prequantize(data, eb, p);
    std::vector<f32> back(data.size());
    dequantize(p, eb, back);
    for (size_t i = 0; i < data.size(); ++i) {
      EXPECT_LE(std::fabs(static_cast<double>(data[i]) - back[i]),
                eb * (1 + 1e-6) + half_ulp)
          << "eb=" << eb << " i=" << i;
    }
  }
}

TEST(Prequantize, RoundsToNearest) {
  const std::vector<f32> data{0.0f, 0.9f, 1.1f, -0.9f, -1.1f, 2.0f};
  std::vector<i64> p(data.size());
  prequantize(data, 0.5, p);  // 2*eb = 1.0
  EXPECT_EQ(p, (std::vector<i64>{0, 1, 1, -1, -1, 2}));
}

TEST(Prequantize, RejectsNonPositiveBound) {
  std::vector<f32> data{1.0f};
  std::vector<i64> p(1);
  EXPECT_THROW(prequantize(data, 0.0, p), Error);
  EXPECT_THROW(prequantize(data, -1.0, p), Error);
}

TEST(QuantV2, RoundTripInRange) {
  Rng rng(2);
  std::vector<i64> deltas(50000);
  for (auto& d : deltas)
    d = static_cast<i64>(rng.below(65534)) - 32767;  // full representable range
  const QuantV2Result q = quant_encode_v2(deltas);
  EXPECT_EQ(q.saturated, 0u);
  std::vector<i64> back(deltas.size());
  quant_decode_v2(q.codes, back);
  EXPECT_EQ(back, deltas);
}

TEST(QuantV2, SaturationIsCountedAndClamped) {
  const std::vector<i64> deltas{0, 32767, 32768, -32768, 1000000, -1000000};
  const QuantV2Result q = quant_encode_v2(deltas);
  EXPECT_EQ(q.saturated, 4u);
  std::vector<i64> back(deltas.size());
  quant_decode_v2(q.codes, back);
  EXPECT_EQ(back[0], 0);
  EXPECT_EQ(back[1], 32767);
  EXPECT_EQ(back[2], 32767);
  EXPECT_EQ(back[3], -32767);
  EXPECT_EQ(back[4], 32767);
  EXPECT_EQ(back[5], -32767);
}

TEST(QuantV2, ZeroMapsToZeroCode) {
  const std::vector<i64> deltas{0, 0, 0};
  const QuantV2Result q = quant_encode_v2(deltas);
  for (const u16 c : q.codes) EXPECT_EQ(c, 0);
}

TEST(QuantV2, SmallMagnitudesUseLowBitsOnly) {
  // The bitshuffle-friendliness property: |δ| < 2^k touches only the k low
  // bit planes plus the sign plane.
  const std::vector<i64> deltas{3, -3, 7, -7};
  const QuantV2Result q = quant_encode_v2(deltas);
  for (const u16 c : q.codes) EXPECT_EQ(c & 0x7ff8 & ~kSignBit16, 0);
}

TEST(QuantV1, RoundTripWithOutliers) {
  Rng rng(3);
  std::vector<i64> deltas(20000);
  for (size_t i = 0; i < deltas.size(); ++i) {
    deltas[i] = i % 97 == 0 ? static_cast<i64>(rng.below(100000)) + 600
                            : static_cast<i64>(rng.below(1000)) - 500;
  }
  const QuantV1Result q = quant_encode_v1(deltas, 512);
  EXPECT_GT(q.outliers.size(), 0u);
  std::vector<i64> back(deltas.size());
  quant_decode_v1(q, back);
  EXPECT_EQ(back, deltas);
}

TEST(QuantV1, CodesAreShiftedIntoRange) {
  const std::vector<i64> deltas{-511, 0, 511};
  const QuantV1Result q = quant_encode_v1(deltas, 512);
  EXPECT_EQ(q.outliers.size(), 0u);
  EXPECT_EQ(q.codes[0], 1u);
  EXPECT_EQ(q.codes[1], 512u);
  EXPECT_EQ(q.codes[2], 1023u);
}

TEST(QuantV1, BoundaryValuesAreOutliers) {
  const std::vector<i64> deltas{-512, 512, 513, -513};
  const QuantV1Result q = quant_encode_v1(deltas, 512);
  EXPECT_EQ(q.outliers.size(), 4u);
  for (const u16 c : q.codes) EXPECT_EQ(c, 0u);
  std::vector<i64> back(deltas.size());
  quant_decode_v1(q, back);
  EXPECT_EQ(back, deltas);
}

TEST(QuantV1, OutliersSortedByIndex) {
  std::vector<i64> deltas(10000, 0);
  deltas[9000] = 100000;
  deltas[50] = -100000;
  deltas[4000] = 99999;
  const QuantV1Result q = quant_encode_v1(deltas, 512);
  ASSERT_EQ(q.outliers.size(), 3u);
  EXPECT_EQ(q.outliers[0].index, 50u);
  EXPECT_EQ(q.outliers[1].index, 4000u);
  EXPECT_EQ(q.outliers[2].index, 9000u);
}

TEST(QuantV1, RejectsBadRadius) {
  std::vector<i64> d{0};
  EXPECT_THROW(quant_encode_v1(d, 1), Error);
  EXPECT_THROW(quant_encode_v1(d, 1 << 15), Error);
}

class DualQuantProperty : public ::testing::TestWithParam<double> {};

TEST_P(DualQuantProperty, EndToEndBoundThroughBothVersions) {
  // prequant -> (v1|v2) -> decode -> dequant stays within eb.
  const double eb = GetParam();
  Rng rng(11);
  std::vector<f32> data(5000);
  f32 acc = 0;
  for (auto& v : data) {
    acc += static_cast<f32>(rng.normal(0.0, 0.3));
    v = acc;  // random walk: mostly small deltas, occasional big ones
  }
  std::vector<i64> p(data.size());
  prequantize(data, eb, p);
  // First differences stand in for Lorenzo residuals: small magnitudes.
  std::vector<i64> deltas(p.size());
  for (size_t i = p.size(); i-- > 1;) deltas[i] = p[i] - p[i - 1];
  deltas[0] = p[0] % 1000;  // keep the seed value representable too

  {
    const QuantV2Result q = quant_encode_v2(deltas);
    ASSERT_EQ(q.saturated, 0u);  // walk steps are far below 2^15 * 2eb
    std::vector<i64> back(deltas.size());
    quant_decode_v2(q.codes, back);
    EXPECT_EQ(back, deltas);
  }
  {
    const QuantV1Result q = quant_encode_v1(deltas, 512);
    std::vector<i64> back(deltas.size());
    quant_decode_v1(q, back);
    EXPECT_EQ(back, deltas);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, DualQuantProperty,
                         ::testing::Values(1e-1, 1e-2, 1e-3));

TEST(QuantizerTest, F32FastPathMatchesExactOnTier1) {
  // ISSUE PR3 satellite: the float-multiply fast path must produce the
  // exact same quantization codes as the double path on the tier-1
  // benchmark datasets (its margin test guarantees this in general; this
  // pins it on the data we actually ship results for).
  for (const Field& f : benchmark_suite(0.08, 42)) {
    const auto [lo, hi] = std::minmax_element(f.data.begin(), f.data.end());
    const double range = static_cast<double>(*hi) - static_cast<double>(*lo);
    for (const double rel : {1e-2, 1e-4}) {
      const double eb = rel * range;
      std::vector<i64> want(f.data.size()), got(f.data.size());
      prequantize(f.values(), eb, want);
      for (const SimdLevel level :
           {SimdLevel::Scalar, resolve_simd(SimdDispatch::Auto)}) {
        std::fill(got.begin(), got.end(), -1);
        prequantize_f32fast(f.values(), eb, got, level);
        ASSERT_EQ(want, got) << f.dataset << "/" << f.name << " rel=" << rel
                             << " " << simd_level_name(level);
      }
    }
  }
}

}  // namespace
}  // namespace fz
