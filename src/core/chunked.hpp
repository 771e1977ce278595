// Chunked (multi-GPU / streaming) compression.
//
// The paper treats multi-GPU operation as embarrassingly parallel (§4.1):
// "we partition data in a coarse-grained manner to fit into a single GPU,
// with a data chunk independent from another."  This module implements that
// partitioning: the field is split along its slowest-varying axis into
// independent chunks, each compressed with the single-device pipeline, and
// the chunk streams are framed into one self-describing container.
//
// The same mechanism serves three purposes:
//   * multi-GPU scaling (one chunk per device, no cross-device traffic),
//   * out-of-core/streaming compression of fields larger than device memory,
//   * random access: any chunk can be decompressed without the others.
//
// Note the ratio/chunking trade-off: Lorenzo prediction restarts at every
// chunk boundary, so very small chunks cost compression ratio; tests pin
// the expected overhead.
//
// Chunks execute in parallel (the CPU analogue of the paper's one-chunk-
// per-device layout): worker threads claim chunks dynamically and each
// worker owns a private fz::Codec, so scratch buffers pool per worker and
// no codec state is shared.  The container bytes are independent of the
// worker count — chunk streams are assembled in chunk order.
#pragma once

#include <vector>

#include "core/pipeline.hpp"

namespace fz {

struct ChunkedParams {
  FzParams base;
  /// Target number of chunks ("devices"); the actual count may be lower
  /// for small fields (at least one slowest-axis slab per chunk).
  size_t num_chunks = 4;
  /// Upper bound on concurrent chunk workers: 0 = one per hardware thread,
  /// 1 = serial on the calling thread.  When nonzero and base.fused_workers
  /// is 0, each chunk codec runs at max(1, max_parallelism / chunk workers)
  /// workers, so the call uses at most max_parallelism threads.
  size_t max_parallelism = 0;
};

struct ChunkedCompressed {
  std::vector<u8> bytes;
  FzStats stats;  ///< aggregated over chunks
  size_t num_chunks = 0;
  /// Per-chunk modeled device costs (each chunk = one device's work).
  std::vector<std::vector<cudasim::CostSheet>> chunk_costs;
};

ChunkedCompressed fz_compress_chunked(FloatSpan data, Dims dims,
                                      const ChunkedParams& params);

/// A container's fully validated identity: format version, field dims, and
/// the chunk index.  For v2 streams the index is parsed straight off the
/// stream; for legacy v1 streams it is synthesized by walking the size
/// table and recomputing the slab plan (the O(chunks) fallback the index
/// was introduced to retire).
struct ContainerInfo {
  unsigned version = 0;  ///< 1 (legacy size table) or 2 (embedded index)
  Dims dims;             ///< whole-field dims
  size_t count = 0;      ///< dims.count()
  size_t header_bytes = 0;  ///< container header + index / size table
  size_t stream_bytes = 0;  ///< total container size
  std::vector<ChunkEntry> chunks;
};

/// Parse and validate a container's header and complete chunk index
/// (byte ranges in bounds and non-overlapping, element ranges exactly
/// tiling the field).  Throws FormatError on anything corrupt.  This is the
/// one container-parsing routine — fz_decompress_chunked, fz::Reader, and
/// fz::inspect all route through it.
ContainerInfo fz_container_info(ByteSpan stream);

/// Decompress the whole container.  Chunks decompress in parallel, each
/// directly into its slab of the output field (0 = one worker per hardware
/// thread, 1 = serial; a nonzero cap bounds every thread of the call, as
/// ChunkedParams::max_parallelism does).
FzDecompressed fz_decompress_chunked(ByteSpan stream,
                                     size_t max_parallelism = 0);

/// Decompress only chunk `index` (random access).  Returns the chunk's data
/// and its dims; `offset_out` receives the chunk's starting index in the
/// flattened full field.  On v2 containers this reads exactly one index
/// entry — O(1) in the chunk count; the O(chunks) size-table walk survives
/// only as the legacy-v1 fallback.
FzDecompressed fz_decompress_chunk(ByteSpan stream, size_t index,
                                   size_t* offset_out = nullptr);

/// Number of chunks in a container stream.  O(1) on v2 containers (header
/// only); walks the size table on legacy v1 streams.
size_t fz_chunk_count(ByteSpan stream);

/// fz::inspect's container path: whole-field identity plus the validated
/// chunk index, with compression parameters taken from chunk 0 and section
/// byte counts summed over chunks.  Prefer calling fz::inspect, which
/// dispatches on the magic.
StreamInfo inspect_container(ByteSpan stream);

}  // namespace fz
