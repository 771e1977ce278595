// Golden streams: the exact compressed bytes (and decoded values) of a fixed
// set of fields, pinned by size and 64-bit FNV-1a digest.
//
// Every field is built with integer arithmetic only and scaled by a power of
// two, so the inputs are bit-exact on any platform with no libm in the
// loop.  The pinned streams cover rank 1/2/3, f32 and f64, absolute and
// range-relative bounds, a V1 (radius + outlier list) stream and a v2
// chunked container.  The log transform is left out on purpose: its bytes
// depend on the platform's libm `log`; the cross-path tests cover it.
//
// A change to the codec that is meant to keep the format must leave every
// digest here unchanged at every worker count.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/pool.hpp"
#include "core/chunked.hpp"
#include "core/codec.hpp"
#include "core/stages.hpp"

namespace {

using fz::Dims;
using fz::ErrorBound;
using fz::FzParams;
using fz::QuantVersion;
using fz::f32;
using fz::f64;
using fz::i64;
using fz::u64;
using fz::u8;

u64 fnv1a(const void* data, size_t n) {
  const auto* p = static_cast<const u8*>(data);
  u64 h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

u64 mix(u64 x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// An integer-valued field over `dims`: a smooth low-order polynomial (whose
/// Lorenzo residuals vanish) plus hashed noise confined to a checkerboard of
/// 8×8 patches (so the stream has both zero and nonzero blocks), plus a rare
/// spike (so V1 has outliers).  No V2 residual saturates at the pinned
/// bounds.  Every value is an integer below 2^23 in magnitude, so it
/// converts to f32 exactly.
std::vector<i64> integer_field(Dims d, u64 seed) {
  std::vector<i64> v(d.count());
  for (size_t z = 0; z < d.z; ++z)
    for (size_t y = 0; y < d.y; ++y)
      for (size_t x = 0; x < d.x; ++x) {
        const size_t i = (z * d.y + y) * d.x + x;
        const i64 xi = static_cast<i64>(x), yi = static_cast<i64>(y),
                  zi = static_cast<i64>(z);
        i64 s = 3 * xi * xi - 2 * yi * yi + 5 * zi * zi + xi * yi -
                4 * yi * zi + 7 * xi - 1000;
        const u64 h = mix(seed * 0x9e3779b97f4a7c15ull + i);
        if (((x / 8) + (y / 8) + z) % 3 == 0)
          s += static_cast<i64>(h % 257) - 128;
        if (h % 1009 == 0) s += 5000;
        v[i] = s;
      }
  return v;
}

/// The field scaled by 2^-6 into the requested float type (exact).
template <typename T>
std::vector<T> scaled_field(Dims d, u64 seed) {
  const std::vector<i64> iv = integer_field(d, seed);
  std::vector<T> out(iv.size());
  for (size_t i = 0; i < iv.size(); ++i)
    out[i] = static_cast<T>(iv[i]) / static_cast<T>(64);
  return out;
}

struct Golden {
  size_t bytes;
  u64 digest;
};

template <typename T>
u64 digest_of(const std::vector<T>& v) {
  return fnv1a(v.data(), v.size() * sizeof(T));
}

void expect_golden(const char* name, const std::vector<u8>& stream,
                   Golden want) {
  const u64 got = fnv1a(stream.data(), stream.size());
  EXPECT_EQ(stream.size(), want.bytes) << name;
  EXPECT_EQ(got, want.digest)
      << name << ": {" << stream.size() << ", 0x" << std::hex << got << "}";
}

void expect_decoded(const char* name, u64 got, u64 want) {
  EXPECT_EQ(got, want) << name << " decoded: 0x" << std::hex << got;
}

struct Case {
  const char* name;
  Dims dims;
  bool f64_input;
  ErrorBound eb;
  Golden stream;
  u64 decoded;
};

// Pinned at the commit that introduced this file.
const Case kCases[] = {
    {"r1-f32-abs", Dims{3000, 1, 1}, false, ErrorBound::absolute(1.0 / 128),
     {5188, 0x54b71c849f2ee157ull}, 0x7826bf257cf21f01ull},
    {"r2-f32-rel", Dims{97, 61, 1}, false, ErrorBound::relative(1e-4),
     {5972, 0x1b61792e23e91630ull}, 0x3137583783b97c42ull},
    {"r3-f32-abs", Dims{37, 29, 11}, false, ErrorBound::absolute(1.0 / 256),
     {16148, 0xa146c1f924adc71bull}, 0x7862010d5788f88eull},
    {"r3-f32-rel", Dims{64, 48, 20}, false, ErrorBound::relative(1e-3),
     {42468, 0x08a7769b3e9c7229ull}, 0x4eb6d7e3e5001d37ull},
    {"r1-f64-rel", Dims{7000, 1, 1}, true, ErrorBound::relative(1e-5),
     {2932, 0x9dcfcb5e4672926full}, 0x327f4dd67dff5d6eull},
    {"r2-f64-abs", Dims{130, 70, 1}, true, ErrorBound::absolute(1.0 / 64),
     {11156, 0xa5bffe6479cfb37eull}, 0xf896939d25f59a10ull},
    {"r3-f64-rel", Dims{40, 33, 17}, true, ErrorBound::relative(1e-4),
     {27204, 0x7033501bfea56871ull}, 0x48827a420c028d7cull},
};

template <typename T>
void check_case(const Case& c, size_t workers) {
  const std::vector<T> data = scaled_field<T>(c.dims, 7);
  FzParams p;
  p.eb = c.eb;
  p.fused_workers = workers;
  fz::Codec codec(p);
  const fz::FzCompressed comp =
      codec.compress(std::span<const T>{data}, c.dims);
  EXPECT_EQ(comp.stats.saturated, 0u) << c.name;
  expect_golden(c.name, comp.bytes, c.stream);
  std::vector<T> out(data.size());
  codec.decompress_into(comp.bytes, std::span<T>{out});
  expect_decoded(c.name, digest_of(out), c.decoded);
}

TEST(Golden, V2StreamsAreByteIdenticalAtEveryWorkerCount) {
  for (const size_t workers : {size_t{1}, size_t{3}, size_t{0}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    for (const Case& c : kCases) {
      if (c.f64_input) {
        check_case<f64>(c, workers);
      } else {
        check_case<f32>(c, workers);
      }
    }
  }
}

// The V1 stream is built by running the classic compress graph over a
// stage context directly, which is the V1 codec path.
TEST(Golden, V1StreamWithOutliers) {
  const Dims dims{45, 31, 9};
  const std::vector<f32> data = scaled_field<f32>(dims, 11);
  FzParams p;
  p.eb = ErrorBound::absolute(1.0 / 128);
  p.quant = QuantVersion::V1Original;
  p.radius = 64;
  fz::BufferPool pool;
  std::vector<u8> stream;
  {
    fz::PipelineContext ctx;
    ctx.begin_compress(&pool, p, dims, data.size(), sizeof(f32), data.data(),
                       &stream);
    for (const auto& stage : fz::make_compress_stages()) stage->run(ctx);
    EXPECT_GT(ctx.stats.outliers, 0u);
    ctx.release_scratch();
  }
  expect_golden("v1-r3-f32-abs", stream, {57388, 0x763b96f776e44da4ull});
  const fz::FzDecompressed out = fz::fz_decompress(stream);
  expect_decoded("v1-r3-f32-abs", digest_of(out.data),
                 0xfc3fbd4af48885a9ull);
}

TEST(Golden, ChunkedContainerV2) {
  const Dims dims{50, 40, 24};
  const std::vector<f32> data = scaled_field<f32>(dims, 5);
  fz::ChunkedParams cp;
  cp.base.eb = ErrorBound::relative(1e-3);
  cp.num_chunks = 4;
  for (const size_t par : {size_t{1}, size_t{0}}) {
    SCOPED_TRACE("max_parallelism=" + std::to_string(par));
    cp.max_parallelism = par;
    const fz::ChunkedCompressed comp = fz::fz_compress_chunked(data, dims, cp);
    EXPECT_EQ(comp.num_chunks, 4u);
    expect_golden("chunked-v2-r3-f32-rel", comp.bytes,
                  {34240, 0x54fdc559c310cf73ull});
    const fz::FzDecompressed out = fz::fz_decompress_chunked(comp.bytes, par);
    expect_decoded("chunked-v2-r3-f32-rel", digest_of(out.data),
                   0x8ad0dd3cd91ba207ull);
  }
}

}  // namespace
