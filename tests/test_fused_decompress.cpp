// Schedule independence of the fused tile-parallel decompress pipeline:
// the cache-resident scatter + inverse-bitshuffle + sign-magnitude decode
// + inverse Lorenzo + dequantize pass must reconstruct byte-identical
// fields to the classic staged graph for EVERY worker count, SIMD tier,
// dtype, rank and transform — including strip
// edges that fall mid-tile, one-line strips, row strips that span every
// plane of a thin slab, and streams read in place at odd byte offsets;
// corrupt flags and truncated payloads must fail with the classic graph's
// messages — and the 3-D z-carry chunked inverse scans must be exact for
// every chunk split (i64 adds are associative mod 2^64, so the partition
// never shows).  Also pins the
// per-strip telemetry spans, legacy-stream routing, the device-model
// mirror (sim_fused_decode) and the split-plane halo windows, plus
// end-to-end identity through fz::Reader chunk fetches and fz::Service
// decompress jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/bitshuffle.hpp"
#include "core/codec.hpp"
#include "core/chunked.hpp"
#include "core/encoder.hpp"
#include "core/kernels_decode.hpp"
#include "core/kernels_sim.hpp"
#include "core/kernels_simd.hpp"
#include "core/lorenzo.hpp"
#include "datasets/field.hpp"
#include "reader/reader.hpp"
#include "reference_graph.hpp"
#include "service/service.hpp"
#include "telemetry/telemetry.hpp"

// The cudasim device model drives thousands of simulated threads through
// very deep cooperative call chains; TSan's fixed-size stack depot cannot
// represent them (sanitizer_stackdepot CHECK failure, not a data race), so
// the sim-mirror tests skip under TSan.  The host-side concurrency tests —
// the reason this binary is in the tsan preset — run everywhere.
#if defined(__SANITIZE_THREAD__)
#define FZ_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FZ_TSAN_BUILD 1
#endif
#endif
#if defined(FZ_TSAN_BUILD)
#define FZ_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "cudasim fiber depth overflows TSan's stack depot"
#else
#define FZ_SKIP_UNDER_TSAN() (void)0
#endif

namespace fz {
namespace {

SimdDispatch dispatch_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::AVX2:
      return SimdDispatch::AVX2;
    case SimdLevel::SSE2:
      return SimdDispatch::SSE2;
    default:
      return SimdDispatch::Scalar;
  }
}

std::vector<SimdLevel> levels_under_test() {
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (simd_supported() >= SimdLevel::SSE2) levels.push_back(SimdLevel::SSE2);
  if (simd_supported() >= SimdLevel::AVX2) levels.push_back(SimdLevel::AVX2);
  return levels;
}

// Multi-tile shapes for every rank (same set the compress-side sweep in
// test_fused_parallel.cpp uses); 2049 exercises the padded final tile.
const Dims kDims[] = {Dims{5000},       Dims{2049},       Dims{64, 256},
                      Dims{96, 40},     Dims{24, 20, 20}, Dims{32, 24, 24}};

template <typename T>
std::vector<T> field(Dims dims, u64 seed) {
  Rng rng(seed);
  const size_t n = dims.count();
  std::vector<T> v(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % std::max<size_t>(dims.x, 1));
    v[i] = static_cast<T>(40.0 * std::sin(x * 0.11) +
                          10.0 * std::cos(static_cast<double>(i) * 0.003) +
                          rng.uniform(-0.5, 0.5));
  }
  return v;
}

template <typename T>
void expect_bits_equal(std::span<const T> a, std::span<const T> b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    if constexpr (sizeof(T) == 4) {
      ASSERT_EQ(std::bit_cast<u32>(a[i]), std::bit_cast<u32>(b[i]))
          << what << " diverges at element " << i;
    } else {
      ASSERT_EQ(std::bit_cast<u64>(a[i]), std::bit_cast<u64>(b[i]))
          << what << " diverges at element " << i;
    }
  }
}

// ---- fused vs classic graph: byte identity across every schedule ----------

template <typename T>
void sweep_dtype(SimdLevel level, Dims dims) {
  const std::vector<T> data = field<T>(dims, dims.count());
  FzParams cp;
  cp.eb = ErrorBound::absolute(1e-3);
  cp.simd = dispatch_for(level);
  cp.fused_workers = 1;
  Codec compressor(cp);
  const FzCompressed c =
      compressor.compress(std::span<const T>{data}, dims);

  // Reference: the classic staged graph (scatter-unshuffle / inverse-quant),
  // single worker.
  std::vector<T> want(data.size());
  ASSERT_EQ(ref::decompress_into(c.bytes, std::span<T>{want}, cp), dims);

  for (size_t workers : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    FzParams dp = cp;
    dp.fused_workers = workers;
    Codec codec(dp);
    std::vector<T> got(data.size(), T(-1));
    ASSERT_EQ(codec.decompress_into(c.bytes, got), dims);
    expect_bits_equal<T>(got, want,
                         dims.to_string() + " level " +
                             std::to_string(static_cast<int>(level)) +
                             " workers " + std::to_string(workers));
  }
}

TEST(FusedDecompress, MatchesUnfusedForEveryScheduleDtypeAndRank) {
  for (const SimdLevel level : levels_under_test())
    for (const Dims dims : kDims) {
      sweep_dtype<f32>(level, dims);
      sweep_dtype<f64>(level, dims);
    }
}

TEST(FusedDecompress, LegacyV1StreamsRouteToTheClassicGraph) {
  // The fused pass decodes V2 sign-magnitude tiles only; a V1 stream must
  // transparently ride the classic graph.
  const Dims dims{60, 50};
  const std::vector<f32> data = field<f32>(dims, 7);
  FzParams v1;
  v1.quant = QuantVersion::V1Original;
  v1.eb = ErrorBound::absolute(1e-2);
  Codec compressor(v1);
  const FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);

  Codec codec;
  std::vector<f32> a(data.size()), b(data.size());
  ASSERT_EQ(codec.decompress_into(c.bytes, a), dims);
  ASSERT_EQ(ref::decompress_into(c.bytes, std::span<f32>{b}), dims);
  expect_bits_equal<f32>(a, b, "v1 stream");
}

// ---- fused decode into the caller's buffer: strip edges and transforms -----

// Rows/planes that are not multiples of a 2048-code tile, so strip edges
// fall mid-tile, and shapes with fewer carry-axis lines (nz, or ny in 2-D)
// than workers.
const Dims kOddDims[] = {Dims{37, 29, 11}, Dims{448, 3, 5}, Dims{70001},
                         Dims{301, 29},    Dims{61, 5},     Dims{2100, 3},
                         Dims{40, 33, 2},  Dims{50, 20, 3}, Dims{700, 1, 3}};

/// Strictly positive variant of field() (the log transform needs d > 0).
template <typename T>
std::vector<T> positive_field(Dims dims, u64 seed) {
  std::vector<T> v = field<T>(dims, seed);
  for (T& x : v) x = static_cast<T>(std::fabs(static_cast<double>(x)) + 1.0);
  return v;
}

std::string log_label(bool log_transform) {
  return log_transform ? " log" : "";
}

template <typename T>
FzCompressed compress_case(Dims dims, bool log_transform) {
  FzParams cp;
  cp.eb = log_transform ? ErrorBound::pointwise_relative(1e-3)
                           : ErrorBound::absolute(1e-3);
  cp.fused_workers = 1;
  Codec compressor(cp);
  const std::vector<T> data = log_transform
                                  ? positive_field<T>(dims, dims.count())
                                  : field<T>(dims, dims.count());
  return compressor.compress(std::span<const T>{data}, dims);
}

template <typename T>
std::vector<T> classic_decode(const FzCompressed& c, Dims dims) {
  std::vector<T> want(dims.count());
  EXPECT_EQ(ref::decompress_into(c.bytes, std::span<T>{want}), dims);
  return want;
}

template <typename T>
void sweep_odd_shape(Dims dims, bool log_transform) {
  const FzCompressed c = compress_case<T>(dims, log_transform);
  const std::vector<T> want = classic_decode<T>(c, dims);
  for (size_t workers : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    FzParams dp;
    dp.fused_workers = workers;
    Codec codec(dp);
    std::vector<T> got(want.size(), T(-1));
    ASSERT_EQ(codec.decompress_into(c.bytes, got), dims);
    expect_bits_equal<T>(got, want,
                         dims.to_string() + log_label(log_transform) + " f" +
                             std::to_string(sizeof(T) * 8) + " workers " +
                             std::to_string(workers));
  }
}

TEST(FusedDecompress, MatchesClassicAcrossStripEdgesAndLogTransform) {
  for (const Dims dims : kOddDims)
    for (const bool log_transform : {false, true}) {
      sweep_odd_shape<f64>(dims, log_transform);
      sweep_odd_shape<f32>(dims, log_transform);
    }
}

/// The V2 sections of a single-field stream, read in place the way
/// FusedDecodeStage does: the stream is copied `shift` bytes into a
/// buffer, so a nonzero shift puts the flag and payload sections at odd
/// byte addresses.
struct StreamSections {
  std::vector<u8> buffer;
  StreamHeader header{};
  ByteSpan bit_flags, blocks;
  std::vector<u32> tile_offsets;
};

StreamSections in_place_sections(const FzCompressed& c, size_t shift = 0) {
  StreamSections p;
  p.buffer.assign(shift, 0xA5);
  p.buffer.insert(p.buffer.end(), c.bytes.begin(), c.bytes.end());
  const u8* stream = p.buffer.data() + shift;
  std::memcpy(&p.header, stream, sizeof(StreamHeader));
  const StreamHeader& h = p.header;
  p.bit_flags = ByteSpan(stream + sizeof(StreamHeader), h.bit_flag_bytes);
  p.blocks = ByteSpan(p.bit_flags.data() + h.bit_flag_bytes,
                      h.block_words * sizeof(u32));
  p.tile_offsets.resize(round_up(h.count, kCodesPerTile) / kCodesPerTile + 1);
  EXPECT_EQ(decode_tile_offsets(p.bit_flags, p.blocks.size(), p.tile_offsets),
            h.block_words / kBlockWords);
  return p;
}

/// Lines a plan of each kind may split: the carry axis for plane strips,
/// the y-rows for row strips.
size_t plan_lines(Dims dims, bool rows) {
  if (rows) return dims.y;
  return dims.rank() == 3 ? dims.z : (dims.rank() == 2 ? dims.y : dims.x);
}

template <typename T>
void expect_kernel_exact(const StreamSections& p, Dims dims,
                         bool log_transform, const std::vector<T>& want,
                         const FusedDecodePlan& plan,
                         const std::string& what) {
  std::vector<i64> pq(dims.count());
  std::vector<T> got(dims.count(), T(-1));
  fused_decode_parallel(p.bit_flags, p.tile_offsets, p.blocks, p.header, pq,
                        std::span<T>{got}, plan, simd_supported());
  expect_bits_equal<T>(got, want,
                       what + log_label(log_transform) +
                           (plan.rows ? " rows " : " planes ") +
                           std::to_string(plan.strips));
}

TEST(FusedDecompress, KernelIsExactForEveryStripCountUpToOneLinePerStrip) {
  // The codec's plan never puts fewer than 16 tiles in a strip; drive the
  // kernel directly so one-line strips (a strip whose first line is its
  // last) and every edge position are covered too, for plane strips and
  // for row strips that span every plane.
  for (const Dims dims : {Dims{37, 29, 11}, Dims{448, 3, 5}, Dims{301, 29},
                          Dims{5000}, Dims{64, 64, 3}}) {
    const FzCompressed c = compress_case<f32>(dims, true);
    const std::vector<f32> want = classic_decode<f32>(c, dims);
    const StreamSections p = in_place_sections(c);
    for (const bool rows : {false, true}) {
      if (rows && dims.rank() != 3) continue;
      const size_t lines = plan_lines(dims, rows);
      for (size_t strips = 1; strips <= lines;
           strips = strips < 40 ? strips + 1 : strips * 7)
        expect_kernel_exact<f32>(p, dims, true, want, {strips, rows},
                                 dims.to_string());
    }
  }
}

template <typename T>
void sweep_plans(Dims dims, bool log_transform, size_t shift) {
  const FzCompressed c = compress_case<T>(dims, log_transform);
  const std::vector<T> want = classic_decode<T>(c, dims);
  const StreamSections p = in_place_sections(c, shift);
  const std::string what = dims.to_string() + " f" +
                           std::to_string(sizeof(T) * 8) + " shift " +
                           std::to_string(shift);
  for (const bool rows : {false, true}) {
    const size_t lines = plan_lines(dims, rows);
    // One line per strip too, where that stays a modest thread count.
    for (const size_t strips : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                                size_t{7}, std::min<size_t>(lines, 32)})
      if (strips <= lines)
        expect_kernel_exact<T>(p, dims, log_transform, want, {strips, rows},
                               what);
  }
  // The codec on the same unaligned bytes, at the plans it would pick.
  const ByteSpan stream(p.buffer.data() + shift, c.bytes.size());
  for (const size_t workers : {size_t{1}, size_t{4}, size_t{16}}) {
    FzParams dp;
    dp.fused_workers = workers;
    Codec codec(dp);
    std::vector<T> got(want.size(), T(-1));
    ASSERT_EQ(codec.decompress_into(stream, std::span<T>{got}), dims);
    expect_bits_equal<T>(got, want,
                         what + log_label(log_transform) + " codec workers " +
                             std::to_string(workers));
  }
}

TEST(FusedDecompress, InPlaceDecodeMatchesClassicForPlaneAndRowPlans) {
  // The reader-slices chunk (512×256×4), odd shapes whose strip edges fall
  // mid-tile, nz ∈ {1, 2, 3, 5}, and ny below the strip count (the codec's
  // row plan for 32768×3×2 wants 4–6 strips and gets 3); every
  // stream also decoded from copies at +1 and +3 bytes, so the payload's
  // 16-byte blocks are loaded unaligned.
  // The shift rotates through {0, 1, 3} so every (dtype, transform) pair
  // meets each alignment on some shape.
  const size_t shifts[] = {0, 1, 3};
  size_t k = 0;
  for (const Dims dims : {Dims{512, 256, 4}, Dims{64, 64, 3}, Dims{37, 29, 11},
                          Dims{448, 3, 5}, Dims{301, 29, 1}, Dims{200, 60, 2},
                          Dims{2100, 2, 3}, Dims{32768, 3, 2}}) {
    for (const bool log_transform : {false, true}) {
      sweep_plans<f64>(dims, log_transform, shifts[k++ % 3]);
      sweep_plans<f32>(dims, log_transform, shifts[k++ % 3]);
    }
    ++k;
  }
}

TEST(FusedDecompress, PlanSplitsThinSlabsIntoRowStrips) {
  // A slab with fewer planes than 4 × strips splits its rows; a deep
  // field splits its planes; a small field stays on one strip.
  const FusedDecodePlan slab = fused_decode_plan(Dims{512, 256, 4}, 4);
  EXPECT_TRUE(slab.rows);
  EXPECT_EQ(slab.strips, 4u);
  const FusedDecodePlan deep = fused_decode_plan(Dims{512, 256, 64}, 4);
  EXPECT_FALSE(deep.rows);
  EXPECT_EQ(deep.strips, 4u);
  // At least 16 tiles per strip: 64 tiles give at most 4 strips.
  EXPECT_EQ(fused_decode_plan(Dims{256, 512}, 8).strips, 4u);
  EXPECT_EQ(fused_decode_plan(Dims{64, 256}, 8).strips, 1u);
  // Row strips clamp to ny; plane strips to nz.
  const FusedDecodePlan flat = fused_decode_plan(Dims{1 << 16, 3, 2}, 8);
  EXPECT_TRUE(flat.rows);
  EXPECT_EQ(flat.strips, 3u);
  EXPECT_EQ(fused_decode_plan(Dims{1 << 16, 2, 3}, 8).strips, 3u);
}

/// Decompress `stream` (a field of `count` f32 values) through one graph
/// and return the FormatError message without its source location ("" when
/// it decodes).
std::string format_error(ByteSpan stream, size_t count, bool fused) {
  std::vector<f32> out(count);
  try {
    if (fused) {
      Codec().decompress_into(stream, out);
    } else {
      ref::decompress_into(stream, std::span<f32>{out});
    }
  } catch (const FormatError& e) {
    const std::string what = e.what();
    return what.substr(0, what.rfind(" ("));
  }
  return "";
}

TEST(FusedDecompress, CorruptFlagsAndTruncatedPayloadsFailLikeTheClassicGraph) {
  const Dims dims{512, 256, 4};
  const FzCompressed c = compress_case<f32>(dims, {});
  StreamHeader h{};
  std::memcpy(&h, c.bytes.data(), sizeof h);
  const size_t payload_bytes = h.block_words * sizeof(u32);
  ASSERT_GT(payload_bytes, 0u);
  const size_t flag_off = sizeof(StreamHeader);

  // One flag bit flipped either way: the popcount no longer matches the
  // payload the header declares.
  for (const size_t byte : {size_t{0}, h.bit_flag_bytes / 2,
                            h.bit_flag_bytes - 1}) {
    std::vector<u8> bad = c.bytes;
    bad[flag_off + byte] ^= 0x10;
    const std::string fused = format_error(bad, dims.count(), true);
    EXPECT_EQ(fused, "decoder: block payload size mismatch") << byte;
    EXPECT_EQ(fused, format_error(bad, dims.count(), false)) << byte;
  }

  // A payload cut short (the header still declares the full payload),
  // at block and at odd byte granularity.
  for (const size_t cut : {size_t{16}, size_t{3}, size_t{1}}) {
    const ByteSpan truncated(c.bytes.data(), c.bytes.size() - cut);
    const std::string fused = format_error(truncated, dims.count(), true);
    EXPECT_FALSE(fused.empty()) << cut;
    EXPECT_EQ(fused, format_error(truncated, dims.count(), false)) << cut;
  }

  // The kernel-level helpers refuse short sections on their own.
  std::vector<u32> offsets(round_up(dims.count(), kCodesPerTile) /
                               kCodesPerTile + 1);
  const ByteSpan flags(c.bytes.data() + flag_off, h.bit_flag_bytes);
  EXPECT_THROW(
      decode_tile_offsets(flags.first(flags.size() - 1), payload_bytes,
                          offsets),
      FormatError);
  EXPECT_THROW(decode_tile_offsets(flags, payload_bytes - 16, offsets),
               FormatError);
  EXPECT_NO_THROW(decode_tile_offsets(flags, payload_bytes, offsets));
}

TEST(FusedDecompress, ReaderAndServiceMatchTheClassicGraph) {
  // A log-transformed odd shape through both serving surfaces, against
  // the classic graph rather than another fused decode.
  const Dims dims{37, 29, 11};
  const FzCompressed c = compress_case<f32>(dims, true);
  const std::vector<f32> want = classic_decode<f32>(c, dims);

  ReaderOptions ro;
  ro.workers = 2;
  Reader reader(c.bytes, ro);
  std::vector<f32> flat(want.size());
  reader.read_flat(0, flat);
  expect_bits_equal<f32>(flat, want, "reader");

  Service::Options so;
  so.workers = 2;
  Service service(so);
  Request req;
  req.kind = JobKind::Decompress;
  req.payload = c.bytes;
  Response resp;
  ASSERT_TRUE(service.submit(req, resp).ok()) << resp.status.message();
  ASSERT_EQ(resp.payload.size(), want.size() * sizeof(f32));
  std::vector<f32> got(want.size());
  std::memcpy(got.data(), resp.payload.data(), resp.payload.size());
  expect_bits_equal<f32>(got, want, "service");
}

// ---- 3-D z-carry chunked scans --------------------------------------------

TEST(FusedDecompress, ZScanChunkedIsExactForEveryChunkCount) {
  // Flat 3-D volumes (fewer y-rows than workers) take the plane-granular
  // chunked z-scan; every worker count must reproduce the serial bytes
  // exactly — integer adds commute under any associativity.
  for (const Dims dims : {Dims{512, 1, 96}, Dims{64, 2, 128}, Dims{33, 1, 50},
                          Dims{128, 3, 40}}) {
    Rng rng(dims.count());
    std::vector<i64> deltas(dims.count());
    for (auto& v : deltas)
      v = static_cast<i64>(rng.uniform(-1e6, 1e6));

    std::vector<i64> want(deltas);
    lorenzo_inverse(want, dims, want, /*workers=*/1);
    for (size_t workers : {size_t{0}, size_t{2}, size_t{3}, size_t{8}}) {
      std::vector<i64> got(deltas);
      lorenzo_inverse(got, dims, got, workers);
      EXPECT_EQ(got, want) << dims.to_string() << " workers " << workers;
    }
  }
}

TEST(FusedDecompress, FlatVolumeStreamsDecodeIdenticallyAcrossWorkers) {
  // End-to-end: the chunked z-scan inside decompress must never show in
  // the restored bytes.
  const Dims dims{1024, 1, 48};
  const std::vector<f32> data = field<f32>(dims, 13);
  Codec compressor;
  const FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);

  FzParams one;
  one.fused_workers = 1;
  Codec ref(one);
  std::vector<f32> want(data.size());
  ref.decompress_into(c.bytes, want);
  for (size_t workers : {size_t{0}, size_t{2}, size_t{3}, size_t{8}}) {
    FzParams dp;
    dp.fused_workers = workers;
    Codec codec(dp);
    std::vector<f32> got(data.size());
    codec.decompress_into(c.bytes, got);
    expect_bits_equal<f32>(got, want, "flat volume workers " +
                                          std::to_string(workers));
  }
}

// ---- telemetry ------------------------------------------------------------

TEST(FusedDecompress, EmitsOneStripSpanPerPlannedStrip) {
  // 64 tiles: the decode plan keeps at least 16 tiles per strip, so this
  // field splits four ways at 8 workers.
  const Dims dims{256, 512};
  const std::vector<f32> data = field<f32>(dims, 3);
  Codec compressor;
  const FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);

  telemetry::Sink sink;
  FzParams dp;
  dp.fused_workers = 8;
  dp.telemetry = &sink;
  Codec codec(dp);
  std::vector<f32> out(data.size());
  codec.decompress_into(c.bytes, out);

  const FusedDecodePlan plan = fused_decode_plan(dims, 8);
  ASSERT_GT(plan.strips, 1u);
  size_t strip_spans = 0;
  bool saw_fused_decode_stage = false;
  for (const auto& ev : sink.snapshot()) {
    const std::string_view name{ev.name};
    if (name == "fused-decode") saw_fused_decode_stage = true;
    if (name != "fused-decode-strip") continue;
    ++strip_spans;
    bool has_strip = false, has_tiles = false, has_bytes = false;
    for (u16 i = 0; i < ev.n_args; ++i) {
      const std::string_view key{ev.args[i].key};
      if (key == "strip") has_strip = true;
      if (key == "tiles") has_tiles = true;
      if (key == "bytes") has_bytes = true;
    }
    EXPECT_TRUE(has_strip && has_tiles && has_bytes);
  }
  EXPECT_TRUE(saw_fused_decode_stage);
  EXPECT_EQ(strip_spans, plan.strips);
}

// ---- device-model mirror ---------------------------------------------------

std::vector<u32> sparse_code_words(size_t count, u64 seed) {
  // Sign-magnitude u16 codes with long zero runs, packed two per word —
  // the shape real residual streams take.
  Rng rng(seed);
  std::vector<u32> words(round_up(count, kCodesPerTile) / 2, 0);
  std::span<u16> codes{reinterpret_cast<u16*>(words.data()),
                       words.size() * 2};
  for (size_t i = 0; i < count; ++i)
    if (rng.uniform(0.0, 1.0) < 0.2)
      codes[i] = static_cast<u16>(
          static_cast<u64>(std::llround(rng.uniform(0.0, 500.0))) * 2 +
          (rng.uniform(0.0, 1.0) < 0.5 ? 1 : 0));
  return words;
}

TEST(SimFusedDecode, MatchesScatterUnshuffleDecodeExactly) {
  FZ_SKIP_UNDER_TSAN();
  // The single-launch device kernel (scatter + ballot transpose + decode)
  // must emit the same i64 residuals as the staged host decode.  The odd
  // count exercises the tail guard on the final tile.
  const size_t count = 5 * kCodesPerTile - 371;
  const auto words = sparse_code_words(count, 17);
  std::vector<u32> shuffled(words.size());
  bitshuffle_tiles(words, shuffled);
  std::vector<u8> byte_flags, bit_flags;
  mark_blocks(shuffled, byte_flags, bit_flags);
  std::vector<u32> blocks;
  compact_blocks(shuffled, byte_flags, blocks);

  // Host reference: staged scatter + unshuffle + scalar decode.
  std::vector<u32> restored(words.size());
  decode_blocks(bit_flags, blocks, restored);
  std::vector<u32> codes(words.size());
  bitunshuffle_tiles(restored, codes);
  std::span<const u16> u16s{reinterpret_cast<const u16*>(codes.data()),
                            codes.size() * 2};
  std::vector<i64> want(count);
  for (size_t i = 0; i < count; ++i) want[i] = sign_magnitude_decode(u16s[i]);

  std::vector<i64> got(count, -12345);
  const auto cost = sim_fused_decode(bit_flags, blocks, got);
  EXPECT_EQ(got, want);
  // One decode launch after the offset scan; the scattered words and the
  // u16 code array never touch global memory, so the only kernel writes
  // beyond the scan's scratch are the i64 residuals themselves.
  EXPECT_GE(cost.global_bytes_written, count * sizeof(i64));
}

TEST(SimFusedDecode, UnpaddedSharedTileStaysCorrect) {
  FZ_SKIP_UNDER_TSAN();
  const size_t count = 2 * kCodesPerTile;
  const auto words = sparse_code_words(count, 23);
  std::vector<u32> shuffled(words.size());
  bitshuffle_tiles(words, shuffled);
  std::vector<u8> byte_flags, bit_flags;
  mark_blocks(shuffled, byte_flags, bit_flags);
  std::vector<u32> blocks;
  compact_blocks(shuffled, byte_flags, blocks);

  std::vector<i64> padded(count), unpadded(count);
  const auto p = sim_fused_decode(bit_flags, blocks, padded, true);
  const auto u = sim_fused_decode(bit_flags, blocks, unpadded, false);
  EXPECT_EQ(padded, unpadded);
  EXPECT_GT(u.shared_transactions, p.shared_transactions);
}

// ---- split-plane halo windows (encode-side strips kernel) ------------------

TEST(SimFusedQuant, SplitPlaneHaloKeepsCooperativeStagingWithinBudget) {
  FZ_SKIP_UNDER_TSAN();
  // {200, 120, 4}: the full plane halo (24201 i64) blows the 200 KB shared
  // budget, but the two bounded windows (near rows + z-plane band) fit —
  // the kernel must stay on the cooperative strips path (the CostSheet
  // name proves it did not fall back) and still match the host stage
  // byte for byte.
  Field f;
  f.dims = Dims{200, 120, 4};
  f.data.resize(f.dims.count());
  Rng rng(29);
  for (auto& v : f.data) v = static_cast<f32>(rng.uniform(-50.0, 50.0));
  const double abs_eb = 0.01;

  const size_t words = round_up(f.count(), kCodesPerTile) / 2;
  std::vector<u32> sim_shuffled(words);
  const ref::FusedTiles host = ref::one_strip_tiles(
      f.values(), f.dims, abs_eb, SimdLevel::Scalar);

  std::vector<u8> sim_byte, sim_bit;
  std::vector<i64> anchor(1, -1);
  const auto cost = sim_fused_quant_shuffle_mark_strips(
      f.values(), f.dims, abs_eb, sim_shuffled, sim_byte, sim_bit, anchor);
  EXPECT_EQ(cost.name, "fused-quant-shuffle-mark-strips");
  EXPECT_EQ(sim_shuffled, host.shuffled);
  EXPECT_EQ(sim_byte, host.byte_flags);
  EXPECT_EQ(sim_bit, host.bit_flags);
  EXPECT_EQ(anchor[0], host.res.anchor);
}

TEST(SimFusedQuant, FallsBackOnlyWhenSplitWindowsBlowTheBudgetToo) {
  FZ_SKIP_UNDER_TSAN();
  // nx so large that even one bounded window exceeds half the budget:
  // the kernel must route to the single-pass fallback (name check) and
  // still match the host stage.
  Field f;
  f.dims = Dims{12000, 3, 2};
  f.data.resize(f.dims.count());
  Rng rng(31);
  for (auto& v : f.data) v = static_cast<f32>(rng.uniform(-50.0, 50.0));

  const size_t words = round_up(f.count(), kCodesPerTile) / 2;
  std::vector<u32> sim_shuffled(words);
  const ref::FusedTiles host = ref::one_strip_tiles(
      f.values(), f.dims, 0.01, SimdLevel::Scalar);

  std::vector<u8> sim_byte, sim_bit;
  std::vector<i64> anchor(1, -1);
  const auto cost = sim_fused_quant_shuffle_mark_strips(
      f.values(), f.dims, 0.01, sim_shuffled, sim_byte, sim_bit, anchor);
  EXPECT_EQ(cost.name, "fused-quant-shuffle-mark");
  EXPECT_EQ(sim_shuffled, host.shuffled);
  EXPECT_EQ(sim_byte, host.byte_flags);
  EXPECT_EQ(anchor[0], host.res.anchor);
}

// ---- end-to-end surfaces ---------------------------------------------------

TEST(FusedDecompress, ReaderChunkFetchesMatchFullDecode) {
  // Reader decodes ride the fused graph (demand misses fanned out on the
  // caller, prefetches one strip each); every slice must still match
  // decompressing the whole stream and copying out.
  const Dims dims{48, 40, 24};
  const std::vector<f32> data = field<f32>(dims, 41);
  ChunkedParams cp;
  cp.num_chunks = 5;
  const ChunkedCompressed c = fz_compress_chunked(data, dims, cp);

  Codec codec;
  std::vector<f32> full(data.size());
  // Whole-container decode as the reference.
  const FzDecompressed ref = fz_decompress_chunked(c.bytes);
  std::copy(ref.data.begin(), ref.data.end(), full.begin());

  ReaderOptions opts;
  opts.workers = 3;
  Reader reader(c.bytes, opts);
  std::vector<f32> flat(data.size());
  reader.read_flat(0, flat);
  expect_bits_equal<f32>(flat, full, "reader full read_flat");

  const Slice s{.x = 5, .y = 7, .z = 3, .nx = 30, .ny = 20, .nz = 15};
  const std::vector<f32> got = reader.read(s);
  std::vector<f32> want(s.count());
  for (size_t z = 0; z < s.nz; ++z)
    for (size_t y = 0; y < s.ny; ++y)
      for (size_t x = 0; x < s.nx; ++x)
        want[(z * s.ny + y) * s.nx + x] =
            full[((s.z + z) * dims.y + (s.y + y)) * dims.x + (s.x + x)];
  expect_bits_equal<f32>(got, want, "reader slice");
}

TEST(FusedDecompress, ServiceDecompressJobsMatchDirectCodec) {
  const Dims dims{96, 40};
  const std::vector<f32> data = field<f32>(dims, 43);
  Codec compressor;
  const FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);
  std::vector<f32> want(data.size());
  compressor.decompress_into(c.bytes, want);

  Service::Options opts;
  opts.workers = 2;
  Service service(opts);
  Request req;
  req.kind = JobKind::Decompress;
  req.payload = c.bytes;
  Response resp;
  ASSERT_TRUE(service.submit(req, resp).ok()) << resp.status.message();
  ASSERT_EQ(resp.dims, dims);
  ASSERT_EQ(resp.payload.size(), want.size() * sizeof(f32));
  std::span<const f32> got{reinterpret_cast<const f32*>(resp.payload.data()),
                           want.size()};
  expect_bits_equal<f32>(got, std::span<const f32>{want}, "service job");
}

TEST(FusedDecompress, ConcurrentCodecsSharingOneSinkStayIndependent) {
  // TSan-facing stress: one Codec per thread (the threading contract), all
  // recording strip spans into ONE shared sink while decompressing the
  // same stream.  Every thread must reproduce the reference bytes.
  const Dims dims{64, 256};
  const std::vector<f32> data = field<f32>(dims, 47);
  Codec compressor;
  const FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);
  std::vector<f32> want(data.size());
  compressor.decompress_into(c.bytes, want);

  telemetry::Sink sink;
  constexpr size_t kThreads = 4;
  std::vector<std::vector<f32>> outs(kThreads,
                                     std::vector<f32>(data.size()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      FzParams dp;
      dp.fused_workers = 2;
      dp.telemetry = &sink;
      Codec codec(dp);
      for (int round = 0; round < 8; ++round)
        codec.decompress_into(c.bytes, outs[t]);
    });
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t)
    expect_bits_equal<f32>(outs[t], std::span<const f32>{want},
                           "thread " + std::to_string(t));
  size_t strip_spans = 0;
  for (const auto& ev : sink.snapshot())
    if (std::string_view{ev.name} == "fused-decode-strip") ++strip_spans;
  EXPECT_GT(strip_spans, 0u);
}

}  // namespace
}  // namespace fz
