// Decoder robustness fuzzing: every decoder in the library must reject
// malformed input with FormatError (or Error) — never crash, hang, or
// allocate unboundedly.  Three families of hostile input per decoder:
// random bytes, truncations of valid streams, and single-byte corruptions
// of valid streams.
#include <gtest/gtest.h>

#include <cstring>

#include "baselines/cuzfp.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/chunked.hpp"
#include "core/format.hpp"
#include "core/pipeline.hpp"
#include "datasets/generators.hpp"
#include "metrics/metrics.hpp"
#include "reader/reader.hpp"
#include "substrate/bitio.hpp"
#include "substrate/histogram.hpp"
#include "substrate/huffman.hpp"
#include "substrate/lz77.hpp"
#include "substrate/rle.hpp"
#include "test_data.hpp"

namespace fz {
namespace {

std::vector<u8> random_bytes(size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u8> v(n);
  for (auto& b : v) b = static_cast<u8>(rng.next_u32());
  return v;
}

/// Run `decode` on hostile input; pass iff it returns normally or throws
/// fz::Error (any subclass).  Anything else (other exception types,
/// crashes) fails the test.
template <typename Fn>
void expect_graceful(Fn&& decode, const std::string& what) {
  try {
    decode();
  } catch (const Error&) {
    return;  // rejected cleanly
  } catch (const std::exception& e) {
    FAIL() << what << " threw a non-fz exception: " << e.what();
  }
  // Returning without throwing is acceptable only when the decoder could
  // legitimately interpret the bytes; reaching here is fine.
}

TEST(Fuzz, FzDecompressRandomBytes) {
  for (u64 seed = 0; seed < 50; ++seed) {
    const auto junk = random_bytes(16 + seed * 13, seed);
    expect_graceful([&] { fz_decompress(junk); }, "fz_decompress");
  }
}

TEST(Fuzz, FzDecompressTruncations) {
  const Field f = generate_field(Dataset::CESM, Dims{50, 40}, 1);
  FzParams params;
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  for (size_t keep = 0; keep < c.bytes.size(); keep += 97) {
    std::vector<u8> cut(c.bytes.begin(),
                        c.bytes.begin() + static_cast<long>(keep));
    expect_graceful([&] { fz_decompress(cut); }, "fz_decompress truncation");
  }
}

TEST(Fuzz, FzDecompressBitflips) {
  const Field f = generate_field(Dataset::CESM, Dims{50, 40}, 2);
  FzParams params;
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<u8> bad = c.bytes;
    bad[rng.below(bad.size())] ^= static_cast<u8>(1u << rng.below(8));
    expect_graceful([&] { fz_decompress(bad); }, "fz_decompress bitflip");
  }
}

TEST(Fuzz, ChunkedContainerHostileInputs) {
  const Field f = generate_field(Dataset::Hurricane, Dims{16, 16, 8}, 4);
  ChunkedParams params;
  params.num_chunks = 3;
  const ChunkedCompressed c = fz_compress_chunked(f.values(), f.dims, params);
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<u8> bad = c.bytes;
    bad[rng.below(bad.size())] ^= static_cast<u8>(1u << rng.below(8));
    expect_graceful([&] { fz_decompress_chunked(bad); }, "chunked bitflip");
  }
  for (u64 seed = 0; seed < 30; ++seed) {
    const auto junk = random_bytes(32 + seed * 7, 100 + seed);
    expect_graceful([&] { fz_decompress_chunked(junk); }, "chunked junk");
  }
}

// ---- container chunk index --------------------------------------------------
//
// The v2 index is the part of the container an attacker controls completely
// (offsets, sizes, element placement) and the part every random-access path
// trusts, so it gets its own fuzz family: bitflips confined to the header +
// index region, truncations through it, and hand-patched entries that are
// individually plausible but violate the tiling invariants.

std::vector<u8> chunked_container(u64 seed) {
  const Field f = generate_field(Dataset::Hurricane, Dims{16, 12, 9}, seed);
  ChunkedParams params;
  params.num_chunks = 3;
  return fz_compress_chunked(f.values(), f.dims, params).bytes;
}

/// Every container entry point must agree that the stream is hostile (or
/// decode it to something bounded) — parse, full decompress, single-chunk
/// access, and the Reader.
void expect_container_graceful(const std::vector<u8>& bytes,
                               const std::string& what) {
  expect_graceful([&] { fz_container_info(bytes); }, what + " (info)");
  expect_graceful([&] { fz_decompress_chunked(bytes); }, what + " (decode)");
  expect_graceful([&] { fz_decompress_chunk(bytes, 1); }, what + " (chunk)");
  expect_graceful([&] { Reader r(bytes, ReaderOptions{.workers = 1}); },
                  what + " (reader)");
}

TEST(Fuzz, ContainerIndexBitflips) {
  const std::vector<u8> good = chunked_container(11);
  const ContainerInfo info = fz_container_info(good);
  ASSERT_EQ(info.version, 2u);
  Rng rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<u8> bad = good;
    // Confine flips to the header + index so every trial attacks the index
    // machinery rather than some chunk's payload.
    bad[rng.below(info.header_bytes)] ^= static_cast<u8>(1u << rng.below(8));
    expect_container_graceful(bad, "v2 index bitflip");
  }
}

TEST(Fuzz, ContainerIndexTruncations) {
  const std::vector<u8> good = chunked_container(13);
  for (size_t keep = 0; keep < good.size(); keep += 31)
    expect_container_graceful(
        std::vector<u8>(good.begin(), good.begin() + static_cast<long>(keep)),
        "v2 truncation");
}

TEST(Fuzz, ContainerIndexHostileEntries) {
  const std::vector<u8> good = chunked_container(14);
  const auto patch_entry = [&](size_t i, const ChunkIndexEntry& e) {
    std::vector<u8> bad = good;
    std::memcpy(bad.data() + sizeof(ContainerHeaderV2) +
                    i * sizeof(ChunkIndexEntry),
                &e, sizeof(e));
    return bad;
  };
  const auto read_entry = [&](size_t i) {
    ChunkIndexEntry e;
    std::memcpy(&e,
                good.data() + sizeof(ContainerHeaderV2) +
                    i * sizeof(ChunkIndexEntry),
                sizeof(e));
    return e;
  };

  // Overlapping byte ranges: entry 1 claims bytes inside entry 0's stream.
  ChunkIndexEntry e = read_entry(1);
  e.offset = read_entry(0).offset + 1;
  EXPECT_THROW(fz_container_info(patch_entry(1, e)), FormatError);

  // Overlapping element ranges: entry 1 restates entry 0's slab.
  e = read_entry(1);
  e.elem_offset = 0;
  EXPECT_THROW(fz_container_info(patch_entry(1, e)), FormatError);

  // A gap in the tiling (chunk 1's slab missing a row).
  e = read_entry(1);
  e.ny -= 1;
  EXPECT_THROW(fz_container_info(patch_entry(1, e)), FormatError);

  // Byte range past the end of the stream.
  e = read_entry(2);
  e.bytes += 4096;
  EXPECT_THROW(fz_container_info(patch_entry(2, e)), FormatError);

  // Offset pointing into the index itself.
  e = read_entry(0);
  e.offset = sizeof(ContainerHeaderV2);
  EXPECT_THROW(fz_container_info(patch_entry(0, e)), FormatError);

  // The O(1) single-chunk path validates its one entry too.
  e = read_entry(1);
  e.bytes = 0;
  EXPECT_THROW(fz_decompress_chunk(patch_entry(1, e), 1), FormatError);
}

TEST(Fuzz, LegacyContainerHostileInputs) {
  const std::vector<u8> good = test::load_test_data(test::kContainerV1Fuzz);
  ASSERT_EQ(fz_container_info(good).version, 1u);
  Rng rng(16);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<u8> bad = good;
    bad[rng.below(bad.size())] ^= static_cast<u8>(1u << rng.below(8));
    expect_container_graceful(bad, "v1 bitflip");
  }
  for (size_t keep = 0; keep < good.size(); keep += 53)
    expect_container_graceful(
        std::vector<u8>(good.begin(), good.begin() + static_cast<long>(keep)),
        "v1 truncation");
}

TEST(Fuzz, ReaderHostileInputs) {
  for (u64 seed = 0; seed < 30; ++seed) {
    const auto junk = random_bytes(24 + seed * 19, 600 + seed);
    expect_graceful([&] { Reader r(junk, ReaderOptions{.workers = 1}); },
                    "reader junk");
  }
}

TEST(Fuzz, HuffmanHostileInputs) {
  for (u64 seed = 0; seed < 50; ++seed) {
    const auto junk = random_bytes(8 + seed * 11, 200 + seed);
    expect_graceful([&] { huffman_decompress(junk); }, "huffman junk");
  }
  // Bitflips on a valid stream.
  Rng rng(6);
  std::vector<u16> syms(3000);
  for (auto& s : syms) s = static_cast<u16>(rng.below(300));
  const auto stream = huffman_compress(syms, 512);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<u8> bad = stream;
    bad[rng.below(bad.size())] ^= static_cast<u8>(1u << rng.below(8));
    expect_graceful([&] { huffman_decompress(bad); }, "huffman bitflip");
  }
}

// ---- gap-array Huffman streams ---------------------------------------------
//
// The v2 header hands an attacker three coupled tables (chunk sizes, gap
// offsets, segment geometry); every inconsistency must die in
// parse_huffman_layout or a bounds-checked consume — never out-of-bounds.

std::vector<u8> patched_u32(std::vector<u8> s, size_t off, u32 v) {
  std::memcpy(s.data() + off, &v, sizeof(v));
  return s;
}

TEST(Fuzz, HuffmanGapHostileHeaders) {
  Rng rng(31);
  std::vector<u16> syms(20000);
  for (auto& s : syms) s = static_cast<u16>(rng.below(300));
  const auto hist = histogram<u16>(syms, 512);
  const auto book = HuffmanCodebook::build(hist);
  const auto good = huffman_encode(syms, book);
  ASSERT_EQ(huffman_decode(good, book), syms);
  const auto attack = [&](std::vector<u8> bad, const std::string& what) {
    expect_graceful([&] { huffman_decode(bad, book); }, what);
  };
  // v2 header layout: magic@0, num_chunks@4, chunk_size@8, segment_size@12,
  // count@16 (u64), then the chunk-size table.
  // Chunk table far larger than the stream: must fail the size check
  // before the table allocation, not allocate 4 GB.
  EXPECT_THROW(
      huffman_decode(patched_u32(good, 4, 0x40000000u), book), FormatError);
  // Zero chunk size / zero segment size on a v2 stream.
  EXPECT_THROW(huffman_decode(patched_u32(good, 8, 0), book), FormatError);
  EXPECT_THROW(huffman_decode(patched_u32(good, 12, 0), book), FormatError);
  // Undersized gap array: segment_size=1 implies ~20k gap words the stream
  // does not contain.
  EXPECT_THROW(huffman_decode(patched_u32(good, 12, 1), book), FormatError);
  // Oversized gap array claim: a huge segment size means fewer gap words
  // than present, shearing the payload framing.
  attack(patched_u32(good, 12, 1u << 30), "huffman oversized segments");
  // Chunk-count / symbol-count mismatch.
  EXPECT_THROW(
      huffman_decode(patched_u32(good, 4, 1), book), FormatError);
  // First chunk claims more payload bytes than the stream holds.
  EXPECT_THROW(
      huffman_decode(patched_u32(good, 24, 0x7fffffffu), book), FormatError);
  // Gap offset beyond the chunk's bit length.
  const size_t gap0 = 24 + parse_huffman_layout(good).num_chunks * 4;
  EXPECT_THROW(
      huffman_decode(patched_u32(good, gap0, 0xffffffffu), book), FormatError);
  // Truncations through header, gap array and payload.
  for (size_t keep = 0; keep < good.size(); keep += 101)
    attack(std::vector<u8>(good.begin(), good.begin() + static_cast<long>(keep)),
           "huffman gap truncation");
  // Random bitflips anywhere in the stream.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<u8> bad = good;
    bad[rng.below(bad.size())] ^= static_cast<u8>(1u << rng.below(8));
    attack(bad, "huffman gap bitflip");
  }
}

TEST(Fuzz, HuffmanRejectsHostileLengthTables) {
  // huffman_decompress carries the length table in-stream; an
  // over-subscribed or overlong table must die in the canonical rebuild,
  // before any decode table is sized from it.
  const auto craft = [](std::initializer_list<u8> lengths) {
    std::vector<u8> s;
    ByteWriter w(s);
    w.put<u32>(static_cast<u32>(lengths.size()));
    for (const u8 l : lengths) w.put<u8>(l);
    w.put<u32>(0);   // v1 encode header: num_chunks
    w.put<u32>(16);  // chunk_size
    w.put<u64>(0);   // count
    return s;
  };
  // Kraft sum 2 > 1: four codes of length 1.
  EXPECT_THROW(huffman_decompress(craft({1, 1, 1, 1})), FormatError);
  // Length beyond the 63-bit code register.
  EXPECT_THROW(huffman_decompress(craft({200, 0, 0, 0})), FormatError);
  // Subtler over-subscription at mixed lengths.
  EXPECT_THROW(huffman_decompress(craft({1, 2, 2, 2})), FormatError);
  // A well-formed table through the same path still works.
  const auto ok = craft({1, 2, 2, 0});
  EXPECT_TRUE(huffman_decompress(ok).empty());
}

TEST(Fuzz, LzHostileInputs) {
  for (u64 seed = 0; seed < 50; ++seed) {
    const auto junk = random_bytes(4 + seed * 9, 300 + seed);
    expect_graceful([&] { lz_decompress(junk, 1000); }, "lz junk");
  }
}

TEST(Fuzz, RleHostileInputs) {
  for (u64 seed = 0; seed < 50; ++seed) {
    auto junk = random_bytes(3 * (1 + seed), 400 + seed);
    expect_graceful([&] { rle_decode(junk, 64); }, "rle junk");
  }
}

TEST(Fuzz, ZfpHostileInputs) {
  using bench::zfp_decompress;
  for (u64 seed = 0; seed < 50; ++seed) {
    const auto junk = random_bytes(16 + seed * 17, 500 + seed);
    expect_graceful([&] { zfp_decompress(junk); }, "zfp junk");
  }
  const Field f = generate_field(Dataset::Nyx, Dims{16, 16, 16}, 7);
  const auto stream = bench::zfp_compress(f.values(), f.dims, 8.0);
  Rng rng(8);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<u8> bad = stream;
    bad[rng.below(bad.size())] ^= static_cast<u8>(1u << rng.below(8));
    expect_graceful([&] { zfp_decompress(bad); }, "zfp bitflip");
  }
}

TEST(Fuzz, CompressRejectsNonFiniteData) {
  std::vector<f32> data{1.0f, std::numeric_limits<f32>::quiet_NaN(), 3.0f};
  FzParams params;
  EXPECT_THROW(fz_compress(data, Dims{3}, params), Error);
  data[1] = std::numeric_limits<f32>::infinity();
  EXPECT_THROW(fz_compress(data, Dims{3}, params), Error);
}

}  // namespace
}  // namespace fz
