// Dual-quantization (paper §2.3, §3.2).
//
// Two variants are provided:
//  * V2 ("optimized", the FZ contribution): residuals are stored as 16-bit
//    sign-magnitude codes — no radius shift, no outlier list; |δ| ≥ 2^15
//    saturates (rare by construction at the paper's error bounds, and the
//    saturation count is reported so callers can verify).
//  * V1 ("original", cuSZ-style, used by the ablation and the cuSZ
//    baseline): residuals inside (-radius, radius) are shifted by +radius
//    into [1, 2·radius); residuals outside are recorded as outliers
//    (index + pre-quantized value) and their code is 0.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace fz {

/// Pre-quantization: p_i = round(d_i / (2·eb)).  The only lossy step of the
/// whole pipeline; |p_i·2eb − d_i| ≤ eb by construction (Fig. 2).
void prequantize(FloatSpan data, double eb, std::span<i64> out);
void prequantize(std::span<const f64> data, double eb, std::span<i64> out);

/// The per-element reconstruction formula, shared by dequantize and the
/// fused decode's write-out (core/kernels_decode.hpp) so both paths round
/// identically.  `scale` is 2·eb.
template <typename T>
inline T dequantize_value(i64 p, double scale) {
  return static_cast<T>(static_cast<double>(p) * scale);
}

/// Reconstruction: d̂_i = p_i · 2eb.
void dequantize(std::span<const i64> p, double eb, std::span<f32> out);
void dequantize(std::span<const i64> p, double eb, std::span<f64> out);

// ---- V2: optimized (sign-magnitude, saturating) ----------------------------

struct QuantV2Result {
  std::vector<u16> codes;
  size_t saturated = 0;  ///< residuals clipped to ±(2^15 − 1)
};

QuantV2Result quant_encode_v2(std::span<const i64> deltas);
void quant_decode_v2(std::span<const u16> codes, std::span<i64> deltas);

/// Allocation-free variant: encode into caller storage (codes.size() ==
/// deltas.size()); returns the saturation count.  The stage graph uses this
/// with pooled buffers so steady-state compression never touches the heap.
size_t quant_encode_v2(std::span<const i64> deltas, std::span<u16> codes);

// ---- V1: original (radius shift + outliers) ---------------------------------

struct Outlier {
  u64 index;
  i64 delta;
};

struct QuantV1Result {
  std::vector<u16> codes;  ///< δ + radius in [1, 2·radius), 0 = outlier
  std::vector<Outlier> outliers;
  u32 radius = 512;
};

QuantV1Result quant_encode_v1(std::span<const i64> deltas, u32 radius = 512);
void quant_decode_v1(const QuantV1Result& q, std::span<i64> deltas);

/// Codes-into-caller-storage variant (codes.size() == deltas.size()).
/// `outliers` is cleared and refilled (its capacity is reused across calls;
/// the outlier list is the one genuinely data-dependent V1 output).
void quant_encode_v1(std::span<const i64> deltas, u32 radius,
                     std::span<u16> codes, std::vector<Outlier>& outliers);

}  // namespace fz
