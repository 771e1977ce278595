// The FZ stream format: the on-disk header plus its validation rules.
//
// Shared by the compression stage graph (core/stages.cpp), the decoders,
// and fz::inspect, so a header field can never be written by one layer and
// skipped by another's validation.  Internal — the public API is
// core/pipeline.hpp and core/codec.hpp.
#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/bitshuffle.hpp"
#include "core/pipeline.hpp"

namespace fz {

constexpr u32 kStreamMagic = 0x50475a46u;  // "FZGP" little-endian
constexpr u16 kStreamVersion = 2;          // v2 added the dtype field
constexpr size_t kCodesPerTile = kTileBytes / sizeof(u16);  // 2048

constexpr u8 kTransformNone = 0;
constexpr u8 kTransformLog = 1;

#pragma pack(push, 1)
struct StreamHeader {
  u32 magic;
  u16 version;
  u8 quant;
  u8 rank;
  u8 dtype;      // sizeof the sample type: 4 (f32) or 8 (f64)
  u8 transform;  // 0 = none, 1 = natural log (point-wise relative bound)
  u8 pad[6];
  u64 nx, ny, nz;
  u64 count;
  f64 abs_eb;
  u32 radius;
  i64 anchor;  // pre-quantized first value: residual[0] has no predictor
               // and would otherwise saturate u16 whenever |data offset|
               // is large relative to eb
  u64 saturated;
  u64 outlier_count;
  u64 bit_flag_bytes;
  u64 block_words;
};
#pragma pack(pop)

// On-disk layout guards: these asserts ARE the format contract.  The
// literal numbers must match docs/FORMAT.md, and tools/fzlint (rule
// layout-audit) re-derives every value from the declaration above and
// fails CI if an assert is missing or disagrees — so layout drift is a
// compile error and a stale assert is a lint error.  memcpy in/out of the
// stream additionally requires trivial copyability.
static_assert(std::is_trivially_copyable_v<StreamHeader>);
static_assert(sizeof(StreamHeader) == 100);
static_assert(offsetof(StreamHeader, magic) == 0);
static_assert(offsetof(StreamHeader, version) == 4);
static_assert(offsetof(StreamHeader, quant) == 6);
static_assert(offsetof(StreamHeader, rank) == 7);
static_assert(offsetof(StreamHeader, dtype) == 8);
static_assert(offsetof(StreamHeader, transform) == 9);
static_assert(offsetof(StreamHeader, pad) == 10);
static_assert(offsetof(StreamHeader, nx) == 16);
static_assert(offsetof(StreamHeader, ny) == 24);
static_assert(offsetof(StreamHeader, nz) == 32);
static_assert(offsetof(StreamHeader, count) == 40);
static_assert(offsetof(StreamHeader, abs_eb) == 48);
static_assert(offsetof(StreamHeader, radius) == 56);
static_assert(offsetof(StreamHeader, anchor) == 60);
static_assert(offsetof(StreamHeader, saturated) == 68);
static_assert(offsetof(StreamHeader, outlier_count) == 76);
static_assert(offsetof(StreamHeader, bit_flag_bytes) == 84);
static_assert(offsetof(StreamHeader, block_words) == 92);

// ---- chunked container ------------------------------------------------------
//
// The container frames independent single-field chunk streams (the paper's
// coarse-grained multi-GPU partitioning).  Container version 1 (legacy)
// stored only a size table, so locating chunk k meant summing k sizes and
// nothing recorded where a chunk lives in the field; version 2 embeds a
// self-describing chunk index — per-chunk byte offset, compressed size,
// element offset, and dims — which is what makes random access O(1) and the
// fz::Reader slice service possible.  Readers accept both; writers emit v2
// (v1 only on request, for compatibility tests).

constexpr u32 kContainerMagic = 0x4b435a46u;  // "FZCK", v1 and v2 alike
constexpr u16 kContainerVersion = 2;
/// v1 stored num_chunks (bounded < 2^24) in the u32 after the magic; v2
/// stores this sentinel there instead, so either version identifies the
/// other's streams unambiguously — and a v1 reader rejects a v2 stream as a
/// bad chunk count rather than misparsing it.
constexpr u32 kContainerV2Sentinel = 0xffffffffu;
constexpr u32 kMaxContainerChunks = 1u << 24;

#pragma pack(push, 1)
/// Container header, version 1 (legacy).  Followed by `num_chunks` u64 byte
/// sizes, then by the concatenated chunk streams; chunk placement had to be
/// recomputed from the slab plan.  Read-only: no writer remains, and the
/// byte fixtures under tests/data pin the readers.
struct ContainerHeaderV1 {
  u32 magic;       // kContainerMagic
  u32 num_chunks;  // 1 .. 2^24-1 (which is how v1 streams stay identifiable)
  u8 rank;
  u8 pad[7];
  u64 nx, ny, nz;
};

/// Container header, version 2.  Followed immediately by `num_chunks`
/// ChunkIndexEntry records, then by the concatenated chunk streams.
struct ContainerHeaderV2 {
  u32 magic;     // kContainerMagic
  u32 sentinel;  // kContainerV2Sentinel (v1 kept num_chunks here)
  u16 version;   // kContainerVersion
  u8 rank;       // 1..3
  u8 pad[5];
  u32 num_chunks;
  u32 pad2;
  u64 nx, ny, nz;  // dims of the WHOLE field
};

/// One chunk-index record: everything needed to locate, size, and place a
/// chunk without touching any other chunk's bytes.
struct ChunkIndexEntry {
  u64 offset;       ///< byte offset of the chunk stream from container start
  u64 bytes;        ///< compressed byte size of the chunk stream
  u64 elem_offset;  ///< first element's index in the flattened full field
  u64 nx, ny, nz;   ///< chunk dims (a slab of the slowest-varying axis)
};
#pragma pack(pop)

// Container layout guards (see the StreamHeader block above for why the
// values are literals): v1 is frozen forever — old archives must keep
// reading — and v2's 48-byte header + 48-byte index entries are what
// docs/FORMAT.md documents and fz::Reader seeks by.
static_assert(std::is_trivially_copyable_v<ContainerHeaderV1>);
static_assert(sizeof(ContainerHeaderV1) == 40);
static_assert(offsetof(ContainerHeaderV1, magic) == 0);
static_assert(offsetof(ContainerHeaderV1, num_chunks) == 4);
static_assert(offsetof(ContainerHeaderV1, rank) == 8);
static_assert(offsetof(ContainerHeaderV1, pad) == 9);
static_assert(offsetof(ContainerHeaderV1, nx) == 16);
static_assert(offsetof(ContainerHeaderV1, ny) == 24);
static_assert(offsetof(ContainerHeaderV1, nz) == 32);

static_assert(std::is_trivially_copyable_v<ContainerHeaderV2>);
static_assert(sizeof(ContainerHeaderV2) == 48);
static_assert(offsetof(ContainerHeaderV2, magic) == 0);
static_assert(offsetof(ContainerHeaderV2, sentinel) == 4);
static_assert(offsetof(ContainerHeaderV2, version) == 8);
static_assert(offsetof(ContainerHeaderV2, rank) == 10);
static_assert(offsetof(ContainerHeaderV2, pad) == 11);
static_assert(offsetof(ContainerHeaderV2, num_chunks) == 16);
static_assert(offsetof(ContainerHeaderV2, pad2) == 20);
static_assert(offsetof(ContainerHeaderV2, nx) == 24);
static_assert(offsetof(ContainerHeaderV2, ny) == 32);
static_assert(offsetof(ContainerHeaderV2, nz) == 40);

static_assert(std::is_trivially_copyable_v<ChunkIndexEntry>);
static_assert(sizeof(ChunkIndexEntry) == 48);
static_assert(offsetof(ChunkIndexEntry, offset) == 0);
static_assert(offsetof(ChunkIndexEntry, bytes) == 8);
static_assert(offsetof(ChunkIndexEntry, elem_offset) == 16);
static_assert(offsetof(ChunkIndexEntry, nx) == 24);
static_assert(offsetof(ChunkIndexEntry, ny) == 32);
static_assert(offsetof(ChunkIndexEntry, nz) == 40);

/// True when the bytes start like a v2 (indexed) container.  False for v1
/// containers, single-field streams, and garbage — callers still validate.
inline bool is_container_v2(ByteSpan stream) {
  if (stream.size() < sizeof(ContainerHeaderV2)) return false;
  u32 magic, sentinel;
  std::memcpy(&magic, stream.data(), sizeof(u32));
  std::memcpy(&sentinel, stream.data() + sizeof(u32), sizeof(u32));
  return magic == kContainerMagic && sentinel == kContainerV2Sentinel;
}

/// True when the bytes carry the container magic (either version).
inline bool is_container(ByteSpan stream) {
  if (stream.size() < sizeof(u32)) return false;
  u32 magic;
  std::memcpy(&magic, stream.data(), sizeof(u32));
  return magic == kContainerMagic;
}

/// Validate every self-consistency rule a header must satisfy before any
/// field is trusted (magic, version, rank, dtype, transform, quant, error
/// bound, dims vs. count vs. stream size).  Throws FormatError.
inline void validate_stream_header(const StreamHeader& h, size_t stream_bytes) {
  FZ_FORMAT_REQUIRE(h.magic == kStreamMagic, "not an FZ stream");
  FZ_FORMAT_REQUIRE(h.version == kStreamVersion,
                    "unsupported FZ stream version");
  FZ_FORMAT_REQUIRE(h.rank >= 1 && h.rank <= 3, "bad rank");
  FZ_FORMAT_REQUIRE(h.dtype == sizeof(f32) || h.dtype == sizeof(f64),
                    "bad dtype");
  FZ_FORMAT_REQUIRE(
      h.transform == kTransformNone || h.transform == kTransformLog,
      "unknown transform");
  const QuantVersion quant = static_cast<QuantVersion>(h.quant);
  FZ_FORMAT_REQUIRE(quant == QuantVersion::V1Original ||
                        quant == QuantVersion::V2Optimized,
                    "bad quant version");
  FZ_FORMAT_REQUIRE(h.abs_eb > 0, "bad error bound");
  // The format's ratio ceiling is 256x on the u16 code stream (the 128x
  // flag ceiling); a count beyond that is corrupt.  Each extent is checked
  // stepwise so the product cannot wrap around u64 and masquerade as a
  // small count (the loops iterate per axis, not on the product).
  const u64 max_count = static_cast<u64>(stream_bytes) * 512;
  FZ_FORMAT_REQUIRE(h.nx >= 1 && h.ny >= 1 && h.nz >= 1 && h.nx <= max_count &&
                        h.ny <= max_count && h.nz <= max_count,
                    "bad dims");
  FZ_FORMAT_REQUIRE(h.nx * h.ny <= max_count &&
                        h.nx * h.ny * h.nz <= max_count,
                    "dims exceed stream");
  const Dims dims{h.nx, h.ny, h.nz};
  FZ_FORMAT_REQUIRE(dims.count() == h.count && h.count > 0, "bad dims");
}

}  // namespace fz
