// Bit-manipulation helpers shared by the codecs.
#pragma once

#include <bit>
#include <cstring>

#include "common/types.hpp"

namespace fz {

/// Number of bits needed to represent v (0 -> 0).
constexpr int bit_width_u32(u32 v) { return std::bit_width(v); }

constexpr int popcount_u32(u32 v) { return std::popcount(v); }

/// Round `v` up to the next multiple of `m` (m > 0).
constexpr size_t round_up(size_t v, size_t m) { return (v + m - 1) / m * m; }
constexpr size_t div_ceil(size_t v, size_t m) { return (v + m - 1) / m; }

/// Reinterpret the bits of a float as u32 and back (no UB, unlike casts).
inline u32 float_bits(f32 v) { return std::bit_cast<u32>(v); }
inline f32 bits_float(u32 v) { return std::bit_cast<f32>(v); }

/// Load a little-endian scalar from a byte stream.
template <typename T>
inline T load_le(const u8* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// Sign-magnitude encoding used by the optimized dual-quantization (§3.2 of
/// the paper): the most significant bit of the 16-bit code carries the sign,
/// the low 15 bits the magnitude. Magnitudes ≥ 2^15 saturate; the paper
/// discards outlier handling and accepts the (rare) precision loss.
constexpr u16 kSignBit16 = u16{1} << 15;
constexpr i32 kMaxMagnitude16 = (i32{1} << 15) - 1;

constexpr u16 sign_magnitude_encode(i32 delta) {
  const bool neg = delta < 0;
  i64 mag = neg ? -static_cast<i64>(delta) : static_cast<i64>(delta);
  if (mag > kMaxMagnitude16) mag = kMaxMagnitude16;  // saturation, documented
  return static_cast<u16>(mag) | (neg ? kSignBit16 : u16{0});
}

constexpr i32 sign_magnitude_decode(u16 code) {
  const i32 mag = code & ~kSignBit16;
  return (code & kSignBit16) ? -mag : mag;
}

/// True when encoding `delta` as a 16-bit sign-magnitude code would saturate.
constexpr bool sign_magnitude_saturates(i64 delta) {
  const i64 mag = delta < 0 ? -delta : delta;
  return mag > kMaxMagnitude16;
}

/// Zig-zag mapping (used by the SZ-style baselines' quantization codes).
constexpr u32 zigzag_encode(i32 v) {
  return (static_cast<u32>(v) << 1) ^ static_cast<u32>(v >> 31);
}
constexpr i32 zigzag_decode(u32 v) {
  return static_cast<i32>(v >> 1) ^ -static_cast<i32>(v & 1);
}

}  // namespace fz
