// SIMD-vs-scalar equivalence (ISSUE PR3): every vectorized kernel in
// core/kernels_simd.cpp must be bit-identical to its scalar reference at
// every dispatch tier the CPU can run, on random AND adversarial inputs —
// all-zeros, all-ones, single-bit patterns, rounding ties, magnitudes that
// straddle the per-tier exact-llround limits, and tile-boundary sizes.
// Also covers the dispatch overrides (FZ_SIMD env var, explicit request)
// and the fused tile pipeline against the unfused stage sequence.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/bitshuffle.hpp"
#include "core/encoder.hpp"
#include "core/format.hpp"
#include "core/kernels_simd.hpp"
#include "core/lorenzo.hpp"
#include "core/quantizer.hpp"
#include "reference_graph.hpp"

namespace fz {
namespace {

/// Every tier this machine can execute, scalar first.  Levels above
/// simd_supported() would silently clamp, so testing them adds nothing.
std::vector<SimdLevel> levels_under_test() {
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (simd_supported() >= SimdLevel::SSE2) levels.push_back(SimdLevel::SSE2);
  if (simd_supported() >= SimdLevel::AVX2) levels.push_back(SimdLevel::AVX2);
  return levels;
}

// Sizes chosen to straddle every internal boundary: vector widths (2/4/8),
// unit (32), block group (8 blocks), tile (2048 codes / 1024 words).
const size_t kSizes[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33,
                         63, 64, 100, 1000, 2047, 2048, 2049, 5000};

template <typename T>
std::vector<T> adversarial_values(size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.below(8)) {
      case 0:  // smooth field values
        v[i] = static_cast<T>(rng.uniform(-1000.0, 1000.0));
        break;
      case 1:  // exact rounding ties at eb = 0.5 (x = k + 0.5)
        v[i] = static_cast<T>(static_cast<double>(rng.below(200)) - 100 + 0.5);
        break;
      case 2:  // large: crosses the SSE2 2^30 exact limit when scaled
        v[i] = static_cast<T>(rng.uniform(-4.0e9, 4.0e9));
        break;
      case 3:  // huge: crosses the AVX2 2^50 exact limit (f64 only ranges)
        v[i] = static_cast<T>(rng.uniform(-4.0e15, 4.0e15));
        break;
      case 4:
        v[i] = T{0};
        break;
      case 5:  // signed zero and tiny magnitudes
        v[i] = static_cast<T>(rng.uniform(-1e-30, 1e-30));
        break;
      case 6:  // near-integer values
        v[i] = static_cast<T>(std::round(rng.uniform(-5000.0, 5000.0)) +
                              rng.uniform(-1e-6, 1e-6));
        break;
      default:
        v[i] = static_cast<T>(rng.normal(0.0, 100.0));
        break;
    }
  }
  return v;
}

TEST(SimdPrequant, F64MatchesScalarReference) {
  for (const double eb : {0.5, 1e-3, 1e-7}) {
    for (const size_t n : kSizes) {
      const auto data = adversarial_values<f64>(n, 17 * n + 1);
      std::vector<i64> want(n);
      prequantize(std::span<const f64>{data}, eb, want);
      for (const SimdLevel level : levels_under_test()) {
        std::vector<i64> got(n, -999);
        prequantize_simd(std::span<const f64>{data}, eb, got, level);
        ASSERT_EQ(want, got) << simd_level_name(level) << " n=" << n
                             << " eb=" << eb;
      }
    }
  }
}

TEST(SimdPrequant, F32MatchesScalarReference) {
  for (const double eb : {0.5, 1e-3, 1e-7}) {
    for (const size_t n : kSizes) {
      const auto data = adversarial_values<f32>(n, 23 * n + 5);
      std::vector<i64> want(n);
      prequantize(std::span<const f32>{data}, eb, want);
      for (const SimdLevel level : levels_under_test()) {
        std::vector<i64> got(n, -999);
        prequantize_simd(std::span<const f32>{data}, eb, got, level);
        ASSERT_EQ(want, got) << simd_level_name(level) << " n=" << n
                             << " eb=" << eb;
      }
    }
  }
}

TEST(SimdPrequant, ExactTiesRoundAwayFromZeroAtEveryLevel) {
  // x = v / (2 eb) lands exactly on k + 0.5: llround rounds away from
  // zero, while hardware round/cvt default to nearest-even — the SIMD
  // emulation must match llround on every one of these.
  std::vector<f64> data64;
  for (int k = -100; k <= 100; ++k)
    data64.push_back((static_cast<double>(k) + 0.5));
  const double eb = 0.5;  // inv == 1, so x == v exactly
  std::vector<f32> data32(data64.begin(), data64.end());
  std::vector<i64> want64(data64.size()), want32(data32.size());
  prequantize(std::span<const f64>{data64}, eb, want64);
  prequantize(std::span<const f32>{data32}, eb, want32);
  for (size_t i = 0; i < data64.size(); ++i) {
    const double v = data64[i];
    ASSERT_EQ(want64[i], std::llround(v));  // sanity: ties away from zero
  }
  for (const SimdLevel level : levels_under_test()) {
    std::vector<i64> got64(data64.size()), got32(data32.size());
    prequantize_simd(std::span<const f64>{data64}, eb, got64, level);
    prequantize_simd(std::span<const f32>{data32}, eb, got32, level);
    EXPECT_EQ(want64, got64) << simd_level_name(level);
    EXPECT_EQ(want32, got32) << simd_level_name(level);
  }
}

TEST(SimdPrequant, F32FastPathMatchesExactPathEverywhere) {
  // The margin test must make the float-multiply fast path (the codec's
  // f32 quantize) agree with the exact double path on *every* input:
  // values engineered to sit on or near half-integer boundaries, ±0,
  // subnormals, scaled magnitudes on both sides of the 2^21 fast-range
  // cap, and eb values whose f32 reciprocal is subnormal or infinite
  // (forcing the all-exact fallback).
  for (const double eb : {0.5, 1e-3, 0.37, 1e-7, 1e45, 1e-45}) {
    for (const size_t n : kSizes) {
      Rng rng(31 * n + 7);
      std::vector<f32> data(n);
      for (size_t i = 0; i < n; ++i) {
        const double sign = rng.below(2) == 0 ? 1.0 : -1.0;
        switch (rng.below(6)) {
          case 0:
          case 1: {
            // Land near a half-integer boundary after scaling.
            const double k = static_cast<double>(rng.below(100000));
            data[i] = static_cast<f32>((k + 0.5) * 2.0 * eb *
                                       (1.0 + rng.uniform(-1e-7, 1e-7)));
            break;
          }
          case 2:
            data[i] = static_cast<f32>(sign * 0.0);
            break;
          case 3:
            // A subnormal f32: nonzero mantissa, zero exponent.
            data[i] = std::bit_cast<f32>(
                static_cast<u32>(rng.below(0x7fffff) + 1) |
                (sign < 0 ? 0x80000000u : 0u));
            break;
          case 4: {
            // Scaled magnitude within a few units of the 2^21 cap, on
            // integers, half-integers and in between.
            const double x = 2097152.0 +
                             static_cast<double>(rng.below(33)) * 0.25 - 4.0;
            data[i] = static_cast<f32>(sign * x * 2.0 * eb);
            break;
          }
          default:
            data[i] = static_cast<f32>(rng.uniform(-3e6, 3e6) * 2.0 * eb);
            break;
        }
      }
      std::vector<i64> want(n);
      prequantize(std::span<const f32>{data}, eb, want);
      for (const SimdLevel level : levels_under_test()) {
        std::vector<i64> got(n, -999);
        prequantize_f32fast(std::span<const f32>{data}, eb, got, level);
        ASSERT_EQ(want, got) << simd_level_name(level) << " n=" << n
                             << " eb=" << eb;
      }
    }
  }
}

TEST(SimdEncode, MatchesScalarReferenceIncludingSaturation) {
  for (const size_t n : kSizes) {
    Rng rng(41 * n + 3);
    std::vector<i64> deltas(n);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.below(4)) {
        case 0:  // in-range
          deltas[i] = static_cast<i64>(rng.below(65535)) - 32767;
          break;
        case 1: {  // clip edges
          static const i64 edges[] = {0,      1,      -1,     32766, 32767,
                                      -32767, 32768,  -32768, 32769, -32769,
                                      65535,  -65535, INT64_MAX, INT64_MIN + 1};
          deltas[i] = edges[rng.below(std::size(edges))];
          break;
        }
        case 2:  // wildly saturating
          deltas[i] = static_cast<i64>(rng.next_u64());
          if (deltas[i] == INT64_MIN) deltas[i] = INT64_MAX;  // ref UB guard
          break;
        default:
          deltas[i] = 0;
          break;
      }
    }
    std::vector<u16> want(n);
    const size_t want_sat = quant_encode_v2(deltas, want);
    for (const SimdLevel level : levels_under_test()) {
      std::vector<u16> got(n, 0xdead);
      const size_t got_sat = quant_encode_v2_simd(deltas, got, level);
      ASSERT_EQ(want, got) << simd_level_name(level) << " n=" << n;
      EXPECT_EQ(want_sat, got_sat) << simd_level_name(level) << " n=" << n;
    }
  }
}

// ---- transpose / shuffle ----------------------------------------------------

std::vector<std::vector<u32>> adversarial_units() {
  std::vector<std::vector<u32>> units;
  units.push_back(std::vector<u32>(32, 0u));           // all zeros
  units.push_back(std::vector<u32>(32, 0xffffffffu));  // all ones
  for (int b : {0, 1, 7, 15, 16, 30, 31}) {            // one bit plane set
    units.push_back(std::vector<u32>(32, 1u << b));
    std::vector<u32> one_word(32, 0u);                 // one word set
    one_word[static_cast<size_t>(b)] = 0xffffffffu;
    units.push_back(one_word);
    std::vector<u32> one_bit(32, 0u);                  // a single 1 bit
    one_bit[static_cast<size_t>(b)] = 1u << (31 - b);
    units.push_back(one_bit);
  }
  units.push_back(std::vector<u32>(32, 0xaaaaaaaau));
  units.push_back(std::vector<u32>(32, 0x55555555u));
  Rng rng(99);
  for (int t = 0; t < 64; ++t) {
    std::vector<u32> r(32);
    for (auto& w : r) w = rng.next_u32();
    units.push_back(r);
  }
  return units;
}

TEST(SimdTranspose, UnitMatchesScalarAtEveryStride) {
  for (const auto& unit : adversarial_units()) {
    for (const size_t stride : {size_t{1}, kUnitsPerTile}) {
      std::vector<u32> want(32 * stride, 0xdeadbeefu);
      transpose_unit_simd(unit.data(), want.data(), stride, SimdLevel::Scalar);
      for (const SimdLevel level : levels_under_test()) {
        std::vector<u32> got(32 * stride, 0xdeadbeefu);
        transpose_unit_simd(unit.data(), got.data(), stride, level);
        ASSERT_EQ(want, got) << simd_level_name(level) << " stride=" << stride;
      }
    }
  }
}

TEST(SimdTranspose, UnitMatchesNaiveGather) {
  // Ground truth straight from the ballot semantics: output plane j bit i
  // == input word i bit j.
  const auto units = adversarial_units();
  for (const SimdLevel level : levels_under_test()) {
    for (const auto& unit : units) {
      u32 naive[32] = {};
      for (int j = 0; j < 32; ++j)
        for (int i = 0; i < 32; ++i)
          naive[j] |= ((unit[static_cast<size_t>(i)] >> j) & 1u)
                      << i;
      u32 got[32];
      transpose_unit_simd(unit.data(), got, 1, level);
      for (int j = 0; j < 32; ++j)
        ASSERT_EQ(got[j], naive[j])
            << simd_level_name(level) << " plane " << j;
    }
  }
}

TEST(SimdShuffle, TilesMatchReferenceAndRoundTrip) {
  for (const size_t tiles : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    const size_t words = tiles * kTileWords;
    Rng rng(1000 + tiles);
    std::vector<u32> in(words);
    for (auto& w : in) w = rng.below(4) == 0 ? 0u : rng.next_u32();
    std::vector<u32> want(words);
    bitshuffle_tiles(in, want);
    for (const SimdLevel level : levels_under_test()) {
      std::vector<u32> got(words, 0xdeadbeefu);
      bitshuffle_tiles_simd(in, got, level);
      ASSERT_EQ(want, got) << "shuffle " << simd_level_name(level);
      std::vector<u32> back(words, 0xdeadbeefu);
      bitunshuffle_tiles_simd(got, back, level);
      ASSERT_EQ(in, back) << "roundtrip " << simd_level_name(level);
      // Cross-tier: vector shuffle must invert under the scalar reference.
      std::vector<u32> back_ref(words);
      bitunshuffle_tiles(got, back_ref);
      ASSERT_EQ(in, back_ref) << "cross " << simd_level_name(level);
    }
  }
}

TEST(SimdMark, MatchesScalarReferenceWithTails) {
  for (const size_t nblocks : {size_t{1}, size_t{2}, size_t{7}, size_t{8},
                               size_t{9}, size_t{100}, size_t{255},
                               size_t{256}, size_t{1000}, size_t{4097}}) {
    Rng rng(7 * nblocks);
    std::vector<u32> words(nblocks * kBlockWords, 0u);
    for (auto& w : words)
      if (rng.below(8) == 0) w = rng.next_u32();  // mostly-zero blocks
    std::vector<u8> want_byte(nblocks), want_bit(div_ceil(nblocks, 8));
    mark_blocks(words, std::span<u8>{want_byte}, std::span<u8>{want_bit});
    for (const SimdLevel level : levels_under_test()) {
      std::vector<u8> got_byte(nblocks, 0xee), got_bit(div_ceil(nblocks, 8), 0xee);
      mark_blocks_simd(words, got_byte, got_bit, level);
      ASSERT_EQ(want_byte, got_byte) << simd_level_name(level)
                                     << " nblocks=" << nblocks;
      ASSERT_EQ(want_bit, got_bit) << simd_level_name(level)
                                   << " nblocks=" << nblocks;
    }
  }
}

// ---- fused tile pipeline ----------------------------------------------------

struct RefOut {
  std::vector<u32> shuffled;
  std::vector<u8> byte_flags;
  std::vector<u8> bit_flags;
  size_t saturated = 0;
  i64 anchor = 0;
};

/// The unfused stage sequence (DualQuantStage + BitshuffleMarkStage),
/// reproduced with the scalar building blocks.
template <typename T>
RefOut reference_pipeline(std::span<const T> data, Dims dims, double eb) {
  const size_t n = data.size();
  std::vector<i64> pq(n), delta(n);
  prequantize(data, eb, pq);
  lorenzo_forward(pq, dims, delta);
  RefOut r;
  r.anchor = delta[0];
  delta[0] = 0;
  const size_t padded = round_up(n, kCodesPerTile);
  const size_t words = padded / 2;
  std::vector<u32> codewords(words, 0u);
  const std::span<u16> codes{reinterpret_cast<u16*>(codewords.data()), padded};
  r.saturated = quant_encode_v2(delta, codes.first(n));
  r.shuffled.resize(words);
  bitshuffle_tiles(codewords, r.shuffled);
  r.byte_flags.resize(words / kBlockWords);
  r.bit_flags.resize(div_ceil(r.byte_flags.size(), 8));
  mark_blocks(r.shuffled, std::span<u8>{r.byte_flags},
              std::span<u8>{r.bit_flags});
  return r;
}

template <typename T>
void check_fused(Dims dims, double eb, u64 seed, SimdLevel level,
                 double noise) {
  const size_t n = dims.count();
  Rng rng(seed);
  std::vector<T> data(n);
  for (size_t i = 0; i < n; ++i)
    data[i] = static_cast<T>(100.0 + 40.0 * std::sin(0.013 * double(i)) +
                             rng.uniform(-noise, noise));
  const RefOut want = reference_pipeline(std::span<const T>{data}, dims, eb);
  const ref::FusedTiles got =
      ref::one_strip_tiles(std::span<const T>{data}, dims, eb, level);

  ASSERT_EQ(want.shuffled, got.shuffled)
      << simd_level_name(level) << " dims " << dims.x << "x" << dims.y << "x"
      << dims.z;
  ASSERT_EQ(want.byte_flags, got.byte_flags) << simd_level_name(level);
  ASSERT_EQ(want.bit_flags, got.bit_flags) << simd_level_name(level);
  EXPECT_EQ(want.anchor, got.res.anchor) << simd_level_name(level);
  EXPECT_EQ(want.saturated, got.res.saturated) << simd_level_name(level);
}

TEST(SimdFused, MatchesUnfusedStagesAllRanksAndLevels) {
  const Dims cases[] = {Dims{1},        Dims{100},      Dims{2047},
                        Dims{2048},     Dims{2049},     Dims{4113},
                        Dims{9000},     Dims{33, 7},    Dims{64, 32},
                        Dims{129, 65},  Dims{1, 33},    Dims{32, 17, 9},
                        Dims{5, 1, 4},  Dims{16, 16, 16}};
  for (const Dims dims : cases) {
    for (const SimdLevel level : levels_under_test()) {
      check_fused<f32>(dims, 1e-3, 7 + dims.count(), level, 0.3);
      check_fused<f64>(dims, 1e-3, 11 + dims.count(), level, 0.3);
    }
  }
}

TEST(SimdFused, MatchesUnfusedUnderHeavySaturation) {
  // Tiny eb + big noise: residuals routinely overflow 15 bits, so the
  // vector clip/saturation-count path is exercised for real.
  for (const SimdLevel level : levels_under_test()) {
    check_fused<f32>(Dims{97, 13}, 1e-6, 77, level, 500.0);
    check_fused<f64>(Dims{11, 9, 5}, 1e-7, 78, level, 500.0);
  }
}

// ---- dispatch overrides -----------------------------------------------------

struct EnvGuard {
  EnvGuard() {
    const char* old = std::getenv("FZ_SIMD");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  ~EnvGuard() {
    if (had_)
      setenv("FZ_SIMD", saved_.c_str(), 1);
    else
      unsetenv("FZ_SIMD");
  }
  std::string saved_;
  bool had_ = false;
};

TEST(SimdDispatchTest, EnvVarForcesTierWhenAuto) {
  EnvGuard guard;
  setenv("FZ_SIMD", "scalar", 1);
  EXPECT_EQ(resolve_simd(SimdDispatch::Auto), SimdLevel::Scalar);
  setenv("FZ_SIMD", "sse2", 1);
  EXPECT_EQ(resolve_simd(SimdDispatch::Auto),
            std::min(SimdLevel::SSE2, simd_supported()));
  setenv("FZ_SIMD", "avx2", 1);
  EXPECT_EQ(resolve_simd(SimdDispatch::Auto),
            std::min(SimdLevel::AVX2, simd_supported()));
  setenv("FZ_SIMD", "bogus-tier", 1);
  EXPECT_EQ(resolve_simd(SimdDispatch::Auto), simd_supported());
  unsetenv("FZ_SIMD");
  EXPECT_EQ(resolve_simd(SimdDispatch::Auto), simd_supported());
}

TEST(SimdDispatchTest, ExplicitRequestBeatsEnv) {
  EnvGuard guard;
  setenv("FZ_SIMD", "avx2", 1);
  EXPECT_EQ(resolve_simd(SimdDispatch::Scalar), SimdLevel::Scalar);
  setenv("FZ_SIMD", "scalar", 1);
  EXPECT_EQ(resolve_simd(SimdDispatch::SSE2),
            std::min(SimdLevel::SSE2, simd_supported()));
}

TEST(SimdDispatchTest, RequestsClampDownNeverUp) {
  const SimdLevel hw = simd_supported();
  EXPECT_LE(resolve_simd(SimdDispatch::AVX2), hw);
  EXPECT_LE(resolve_simd(SimdDispatch::SSE2), hw);
  EXPECT_EQ(resolve_simd(SimdDispatch::Scalar), SimdLevel::Scalar);
}

TEST(SimdDispatchTest, ParseLevelAcceptsExactNamesOnly) {
  SimdLevel out = SimdLevel::AVX2;
  EXPECT_TRUE(simd_parse_level("scalar", out));
  EXPECT_EQ(out, SimdLevel::Scalar);
  EXPECT_TRUE(simd_parse_level("sse2", out));
  EXPECT_EQ(out, SimdLevel::SSE2);
  EXPECT_TRUE(simd_parse_level("avx2", out));
  EXPECT_EQ(out, SimdLevel::AVX2);
  EXPECT_FALSE(simd_parse_level("AVX2", out));
  EXPECT_FALSE(simd_parse_level("", out));
  EXPECT_EQ(out, SimdLevel::AVX2);  // untouched on failure
}

}  // namespace
}  // namespace fz
