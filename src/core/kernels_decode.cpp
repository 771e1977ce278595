// fzlint:hot-path — the fused decompress inner loops; every Reader chunk
// fetch and fzd decompress job runs through here.
#include "core/kernels_decode.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/bitshuffle.hpp"
#include "core/format.hpp"
#include "core/quantizer.hpp"
#include "telemetry/telemetry.hpp"

namespace fz {

namespace {

/// Scatter one tile's 256 blocks into the stack tile buffer: zero blocks
/// zero-fill, nonzero blocks copy four words from the compacted payload.
/// The flag/offset spans are tile-local slices (kBlocksPerTile entries).
inline void scatter_tile(const u32* flags32, const u32* offsets,
                         const u32* blocks, u32* tile) {
  for (size_t blk = 0; blk < kBlocksPerTile; ++blk) {
    u32* dst = tile + blk * kBlockWords;
    if (flags32[blk] == 0) {
      for (size_t k = 0; k < kBlockWords; ++k) dst[k] = 0;
      continue;
    }
    const u32* src = blocks + static_cast<size_t>(offsets[blk]) * kBlockWords;
    for (size_t k = 0; k < kBlockWords; ++k) dst[k] = src[k];
  }
}

/// Inverse bitshuffle of one tile (the bitunshuffle_tiles_simd body with
/// the dispatch hoisted out): gather each unit's planes, then the same
/// transpose (an involution) written contiguously inverts the shuffle.
inline void unshuffle_tile(TransposeUnitFn transpose, const u32* tin,
                           u32* tout) {
  for (size_t u = 0; u < kUnitsPerTile; ++u) {
    alignas(32) u32 tmp[kUnitWords];
    for (size_t j = 0; j < kUnitWords; ++j)
      tmp[j] = tin[j * kUnitsPerTile + u];
    transpose(tmp, tout + u * kUnitWords, 1);
  }
}

/// Scatter + inverse-bitshuffle tile `t` into `tile_codes` (via the
/// `tile_shuf` staging buffer) and view the result as 2048 u16 codes,
/// packed little-endian two per word — the codes-as-u32 layout the whole
/// pipeline shares.
inline const u16* decode_tile(std::span<const u32> flags32,
                              std::span<const u32> offsets,
                              std::span<const u32> blocks, size_t t,
                              TransposeUnitFn transpose, u32* tile_shuf,
                              u32* tile_codes) {
  scatter_tile(flags32.data() + t * kBlocksPerTile,
               offsets.data() + t * kBlocksPerTile, blocks.data(), tile_shuf);
  unshuffle_tile(transpose, tile_shuf, tile_codes);
  return reinterpret_cast<const u16*>(tile_codes);
}

constexpr size_t kBlockBytes = kBlockWords * sizeof(u32);

/// The stream sections fused_decode_parallel reads in place.
struct Sections {
  const u8* bit_flags;
  const u32* tile_offsets;
  const u8* blocks;
};

/// The in-place twin of scatter_tile: zero the tile, then copy each set
/// flag's 16-byte block straight from the stream's payload (any byte
/// alignment), walking the tile's 32 flag bytes 64 blocks at a time.
inline void scatter_tile_inplace(const u8* flags, const u8* src, u32* tile) {
  std::memset(tile, 0, kTileBytes);
  for (size_t g = 0; g < kFlagBytesPerTile; g += sizeof(u64)) {
    for (u64 m = load_le<u64>(flags + g); m != 0; m &= m - 1) {
      const size_t blk = g * 8 + static_cast<size_t>(std::countr_zero(m));
      std::memcpy(tile + blk * kBlockWords, src, kBlockBytes);
      src += kBlockBytes;
    }
  }
}

/// One strip's tile working set: both buffers stay resident in L1 across
/// the whole strip, and `tile` remembers which tile they hold, so a row
/// strip whose plane segments meet inside one tile decodes it once.
struct TileBuffers {
  alignas(64) u32 shuf[kTileWords];
  alignas(64) u32 codes[kTileWords];
  size_t tile = SIZE_MAX;
  size_t decoded = 0;  ///< tiles decoded so far

  const u16* decode(const Sections& src, size_t t, TransposeUnitFn transpose) {
    if (t != tile) {
      scatter_tile_inplace(src.bit_flags + t * kFlagBytesPerTile,
                           src.blocks + src.tile_offsets[t] * kBlockBytes,
                           shuf);
      unshuffle_tile(transpose, shuf, codes);
      tile = t;
      ++decoded;
    }
    return reinterpret_cast<const u16*>(codes);
  }
};

/// Inverse Lorenzo over one run of a row: p = the running x-sum of the
/// decoded residuals, plus p[y−1] − p[y−1,z−1] + p[z−1] for whichever of
/// those neighbours lie inside the strip (the others count as 0).  `up`,
/// `back` and `up_back` point at the run's neighbours in those rows;
/// returns the running sum.
template <bool kUp, bool kBack>
inline i64 lorenzo_run(const u16* codes, size_t n, i64 rx, const i64* up,
                       const i64* back, const i64* up_back, i64* p) {
  for (size_t k = 0; k < n; ++k) {
    rx += sign_magnitude_decode(codes[k]);
    i64 v = rx;
    if constexpr (kUp) v += up[k];
    if constexpr (kBack) v += back[k];
    if constexpr (kUp && kBack) v -= up_back[k];
    p[k] = v;
  }
  return rx;
}

/// Where a plan's strips lie: strip s owns lines [first(s), first(s + 1))
/// of `lines` lines of `line` elements, in each of `segments` segments
/// `stride` elements apart — one segment for plane strips (the carry
/// axis), one per z-plane for row strips.
struct StripLayout {
  size_t lines = 1;
  size_t line = 1;
  size_t segments = 1;
  size_t stride = 0;

  StripLayout(Dims dims, bool rows) {
    if (rows) {
      lines = dims.y;
      line = dims.x;
      segments = dims.z;
      stride = dims.x * dims.y;
      return;
    }
    switch (dims.rank()) {
      case 1:
        lines = dims.x;
        break;
      case 2:
        lines = dims.y;
        line = dims.x;
        break;
      default:
        lines = dims.z;
        line = dims.x * dims.y;
        break;
    }
  }
  /// First line of strip s (strip s covers [first(s), first(s + 1))).
  size_t first(size_t s, size_t strips) const { return s * lines / strips; }
  /// Flat index of line `l` of segment `seg`.
  size_t at(size_t seg, size_t l) const { return seg * stride + l * line; }
};

/// Pass 1 for one segment [b, e) of a strip: decode its tiles (a tile
/// straddling a strip edge is decoded by both neighbours; each keeps only
/// its own elements) and write the strip-local inverse Lorenzo into `pq`.
/// `back_in_strip` says the previous plane's rows belong to the strip
/// (row strips past their first plane).
void decode_segment_local(const Sections& src, Dims dims, i64 anchor,
                            size_t b, size_t e, bool back_in_strip,
                            TransposeUnitFn transpose, TileBuffers& buf,
                            i64* pq) {
  const size_t nx = dims.x;
  const size_t plane = dims.x * dims.y;
  size_t x = b % nx;
  size_t y = (b / nx) % dims.y;
  size_t j = b;
  i64 rx = 0;
  for (size_t t = b / kCodesPerTile; j < e; ++t) {
    const u16* codes = buf.decode(src, t, transpose);
    const size_t base = t * kCodesPerTile;
    const size_t tile_end = std::min(e, base + kCodesPerTile);
    while (j < tile_end) {
      if (x == 0) rx = j == 0 ? anchor : 0;  // restore the anchored residual
      const size_t n = std::min(tile_end - j, nx - x);
      const bool up = y > 0 && j >= b + nx;
      const bool back = back_in_strip || j >= b + plane;
      const u16* c = codes + (j - base);
      i64* p = pq + j;
      if (up && back) {
        rx = lorenzo_run<true, true>(c, n, rx, p - nx, p - plane,
                                     p - plane - nx, p);
      } else if (up) {
        rx = lorenzo_run<true, false>(c, n, rx, p - nx, nullptr, nullptr, p);
      } else if (back) {
        rx = lorenzo_run<false, true>(c, n, rx, nullptr, p - plane, nullptr,
                                      p);
      } else {
        rx = lorenzo_run<false, false>(c, n, rx, nullptr, nullptr, nullptr, p);
      }
      j += n;
      x += n;
      if (x == nx) {
        x = 0;
        if (++y == dims.y) y = 0;
      }
    }
  }
}

/// Dequantize (dequantize's per-element formula) and optionally undo the
/// log transform.
template <typename T, bool kLog>
struct Reconstruct {
  double scale;

  T operator()(i64 v) const {
    T d = dequantize_value<T>(v, scale);
    if constexpr (kLog) d = static_cast<T>(std::exp(static_cast<double>(d)));
    return d;
  }
};

/// Pass 3: per strip and segment, add the previous strip's global last
/// line to every line but the strip's own last one — already global after
/// the carry pass; strip 0 has no carry — and reconstruct into `out`.
template <typename T, typename Fn>
void write_strips(const i64* pq, const StripLayout& layout, size_t strips,
                  const Fn& reconstruct, T* out, telemetry::Sink* sink) {
  const size_t line = layout.line;
  parallel_tasks(strips, strips, [&](size_t s, size_t) {
    const size_t l0 = layout.first(s, strips);
    const size_t l1 = layout.first(s + 1, strips);
    telemetry::Span span(sink, "fused-decode-write");
    if (span.enabled()) {
      span.arg("strip", static_cast<double>(s));
      span.arg("bytes", static_cast<double>(layout.segments * (l1 - l0) *
                                            line * sizeof(T)));
    }
    for (size_t seg = 0; seg < layout.segments; ++seg) {
      const size_t b = layout.at(seg, l0);
      const size_t e = layout.at(seg, l1);
      const size_t interior_end = s > 0 ? e - line : b;
      const i64* carry = s > 0 ? pq + (b - line) : nullptr;
      if (line == 1) {
        for (size_t i = b; i < interior_end; ++i)
          out[i] = reconstruct(pq[i] + *carry);
      } else {
        for (size_t l = b; l < interior_end; l += line)
          for (size_t k = 0; k < line; ++k)
            out[l + k] = reconstruct(pq[l + k] + carry[k]);
      }
      for (size_t i = interior_end; i < e; ++i) out[i] = reconstruct(pq[i]);
    }
  });
}

template <typename T>
void fused_decode_impl(ByteSpan bit_flags, std::span<const u32> tile_offsets,
                       ByteSpan blocks, const StreamHeader& h,
                       std::span<i64> pq, std::span<T> out,
                       const FusedDecodePlan& plan, SimdLevel level,
                       telemetry::Sink* sink) {
  const Dims dims{h.nx, h.ny, h.nz};
  const size_t count = dims.count();
  const size_t tiles = div_ceil(std::max<size_t>(count, 1), kCodesPerTile);
  FZ_REQUIRE(count != 0 && pq.size() == count && out.size() == count,
             "fused decode: size mismatch");
  FZ_REQUIRE(bit_flags.size() >= tiles * kFlagBytesPerTile &&
                 tile_offsets.size() == tiles + 1 &&
                 blocks.size() ==
                     static_cast<size_t>(tile_offsets[tiles]) * kBlockBytes,
             "fused decode: section/tile-offset size mismatch");
  const StripLayout layout(dims, plan.rows);
  const size_t strips = plan.strips;
  FZ_REQUIRE(strips >= 1 && strips <= layout.lines,
             "fused decode: strip count out of range");
  const TransposeUnitFn transpose = transpose_unit_fn(level);
  const Sections src{bit_flags.data(), tile_offsets.data(), blocks.data()};

  // Pass 1: strip-local decode + inverse Lorenzo into pq.
  parallel_tasks(strips, strips, [&](size_t s, size_t) {
    const size_t l0 = layout.first(s, strips);
    const size_t l1 = layout.first(s + 1, strips);
    telemetry::Span span(sink, "fused-decode-strip");
    TileBuffers buf;
    for (size_t seg = 0; seg < layout.segments; ++seg)
      decode_segment_local(src, dims, h.anchor, layout.at(seg, l0),
                           layout.at(seg, l1), seg > 0, transpose, buf,
                           pq.data());
    if (span.enabled()) {
      span.arg("strip", static_cast<double>(s));
      span.arg("tiles", static_cast<double>(buf.decoded));
      span.arg("bytes", static_cast<double>(layout.segments * (l1 - l0) *
                                            layout.line * sizeof(i64)));
    }
  });

  // Pass 2: globalize each strip's last line (the scan_*_chunked carry).
  for (size_t s = 1; s < strips; ++s) {
    const size_t last = layout.first(s + 1, strips) - 1;
    const size_t prev = layout.first(s, strips) - 1;
    for (size_t seg = 0; seg < layout.segments; ++seg) {
      i64* dst = pq.data() + layout.at(seg, last);
      const i64* carry = pq.data() + layout.at(seg, prev);
      for (size_t k = 0; k < layout.line; ++k) dst[k] += carry[k];
    }
  }

  // Pass 3: carry + reconstruct straight into the caller's output.
  const double scale = 2.0 * h.abs_eb;
  if (h.transform == kTransformLog) {
    write_strips(pq.data(), layout, strips, Reconstruct<T, true>{scale},
                 out.data(), sink);
  } else {
    write_strips(pq.data(), layout, strips, Reconstruct<T, false>{scale},
                 out.data(), sink);
  }
}

}  // namespace

void fused_scatter_decode_parallel(std::span<const u32> flags32,
                                   std::span<const u32> offsets,
                                   std::span<const u32> blocks,
                                   std::span<i64> deltas,
                                   const FusedParallelPlan& plan,
                                   SimdLevel level, telemetry::Sink* sink) {
  const size_t count = deltas.size();
  const size_t tiles = div_ceil(std::max<size_t>(count, 1), kCodesPerTile);
  FZ_REQUIRE(flags32.size() == tiles * kBlocksPerTile &&
                 offsets.size() == flags32.size(),
             "fused decode: flag/offset size mismatch");
  const size_t tiles_per = div_ceil(tiles, plan.strips);
  const TransposeUnitFn transpose = transpose_unit_fn(level);

  parallel_tasks(plan.strips, plan.strips, [&](size_t s, size_t) {
    const size_t tile_b = s * tiles_per;
    const size_t tile_e = std::min(tiles, tile_b + tiles_per);
    telemetry::Span span(sink, "fused-decode-strip");
    if (span.enabled()) {
      span.arg("strip", static_cast<double>(s));
      span.arg("tiles", static_cast<double>(tile_e - tile_b));
    }
    size_t decoded = 0;
    // Both tile buffers stay resident in L1 across the whole strip — the
    // traffic fz_fused_decode_cost models as saved.
    alignas(64) u32 tile_shuf[kTileWords];
    alignas(64) u32 tile_codes[kTileWords];
    for (size_t t = tile_b; t < tile_e; ++t) {
      // The last tile's padding codes stop at the field's element count.
      const u16* codes = decode_tile(flags32, offsets, blocks, t, transpose,
                                     tile_shuf, tile_codes);
      const size_t base = t * kCodesPerTile;
      const size_t n = std::min(kCodesPerTile, count - base);
      i64* out = deltas.data() + base;
      for (size_t i = 0; i < n; ++i)
        out[i] = sign_magnitude_decode(codes[i]);
      decoded += n;
    }
    if (span.enabled())
      span.arg("bytes", static_cast<double>(decoded * sizeof(i64)));
  });
}

size_t decode_tile_offsets(ByteSpan bit_flags, size_t block_bytes,
                           std::span<u32> tile_offsets) {
  FZ_REQUIRE(!tile_offsets.empty(), "decoder: scratch size mismatch");
  const size_t tiles = tile_offsets.size() - 1;
  FZ_FORMAT_REQUIRE(bit_flags.size() >= tiles * kFlagBytesPerTile,
                    "decoder: flag array too small");
  size_t total = 0;
  for (size_t t = 0; t < tiles; ++t) {
    tile_offsets[t] = static_cast<u32>(total);
    const u8* flags = bit_flags.data() + t * kFlagBytesPerTile;
    for (size_t g = 0; g < kFlagBytesPerTile; g += sizeof(u64))
      total += static_cast<size_t>(std::popcount(load_le<u64>(flags + g)));
  }
  tile_offsets[tiles] = static_cast<u32>(total);
  FZ_FORMAT_REQUIRE(block_bytes == total * kBlockBytes,
                    "decoder: block payload size mismatch");
  return total;
}

FusedDecodePlan fused_decode_plan(Dims dims, size_t workers) {
  // A strip costs one fork slot and re-decodes up to two edge tiles per
  // segment; 16 tiles (32 Ki values) keep both small against its work.
  constexpr size_t kMinStripTiles = 16;
  const size_t tiles =
      div_ceil(std::max<size_t>(dims.count(), 1), kCodesPerTile);
  const size_t want =
      std::min(workers != 0 ? workers : static_cast<size_t>(max_threads()),
               std::max<size_t>(1, tiles / kMinStripTiles));
  FusedDecodePlan plan;
  plan.rows = want > 1 && dims.rank() == 3 && dims.z < 4 * want &&
              dims.z < dims.y;
  plan.strips = std::max<size_t>(
      1, std::min(want, StripLayout(dims, plan.rows).lines));
  return plan;
}

void fused_decode_parallel(ByteSpan bit_flags,
                           std::span<const u32> tile_offsets, ByteSpan blocks,
                           const StreamHeader& header, std::span<i64> pq,
                           std::span<f32> out, const FusedDecodePlan& plan,
                           SimdLevel level, telemetry::Sink* sink) {
  fused_decode_impl(bit_flags, tile_offsets, blocks, header, pq, out, plan,
                    level, sink);
}

void fused_decode_parallel(ByteSpan bit_flags,
                           std::span<const u32> tile_offsets, ByteSpan blocks,
                           const StreamHeader& header, std::span<i64> pq,
                           std::span<f64> out, const FusedDecodePlan& plan,
                           SimdLevel level, telemetry::Sink* sink) {
  fused_decode_impl(bit_flags, tile_offsets, blocks, header, pq, out, plan,
                    level, sink);
}

}  // namespace fz
