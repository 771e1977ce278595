// fz::Reader — concurrent random access into compressed streams.
//
// The container's chunk index (core/format.hpp, v2) makes any chunk
// locatable in O(1); this subsystem turns that into a slice service: ask
// for any N-D rectangle of the field and the Reader decodes exactly the
// covering chunks — on a persistent ThreadPool, through an LRU ChunkCache,
// with a sequential-pattern Prefetcher warming the cache ahead of forward
// sweeps.  The architecture follows rapidgzip's random-access stack
// (BlockFetcher / prefetcher / cache / thread pool), with FZ chunks in
// place of gzip blocks.
//
// Results are byte-identical to decompressing the full stream and copying
// the region out (pinned by tests/test_reader.cpp for every worker count
// and cache budget) — the cache changes when work happens, never what it
// produces.
//
// Concurrency contract: every public method may be called from any number
// of threads concurrently.  A demand miss — a chunk a read needs that no
// one is loading yet — is decoded on the calling thread, fanned out over
// the fused decode's strips (fused_workers = pool workers / demand decodes
// in flight, at least 1) with a Codec leased from a small free list;
// prefetches run on the pool, one single-strip fz::Codec per pool worker
// (the Codec threading contract).  A caller decodes every chunk it must
// load before it waits for any other, so callers block only in the
// cache's wait, never inside a decode another caller needs.  The stream
// bytes must stay alive and unchanged for the Reader's lifetime.
//
// Telemetry: with a sink attached, each read() records a "reader-read"
// span, each chunk decode a "chunk-fetch" span (demand = 1 on the caller,
// prefetch = 1 on a pool worker), and the cache ticks the Counter::Reader*
// hit/miss/prefetch/eviction counters.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/pool.hpp"
#include "common/thread_pool.hpp"
#include "core/chunked.hpp"
#include "reader/cache.hpp"
#include "reader/prefetcher.hpp"

namespace fz {

class Codec;

/// An axis-aligned rectangle of the field: origin (x, y, z) and extent
/// (nx, ny, nz).  Unused trailing axes stay at origin 0, extent 1 (so
/// Slice{.x = 5, .nx = 10} is elements [5, 15) of a 1-D field).
struct Slice {
  size_t x = 0, y = 0, z = 0;
  size_t nx = 1, ny = 1, nz = 1;
  size_t count() const { return nx * ny * nz; }
};

struct ReaderOptions {
  /// Decode pool size (0 = max_threads(), one per CPU).
  size_t workers = 0;
  /// Byte budget for decoded chunks retained in the cache.
  size_t cache_bytes = size_t{256} << 20;
  /// Max chunks prefetched ahead of a sequential sweep (0 disables).
  size_t max_prefetch = 4;
  /// Observability sink; when null the Reader falls back to
  /// telemetry::active_sink() (ScopedSink / FZ_TRACE), like Codec does.
  /// The resolved sink must outlive the Reader.
  telemetry::Sink* telemetry = nullptr;
};

/// Cache effectiveness counters (a stable snapshot of ChunkCache::Stats).
using ReaderStats = ChunkCache::Stats;

class Reader {
 public:
  /// Parse and validate the container's chunk index (or wrap a single-field
  /// f32 stream as one chunk, so slicing works uniformly on any stream).
  /// Throws FormatError on corrupt input, before any thread is spawned.
  explicit Reader(ByteSpan stream, ReaderOptions options = {});
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;
  ~Reader();

  const ContainerInfo& info() const { return info_; }
  Dims dims() const { return info_.dims; }
  size_t chunk_count() const { return info_.chunks.size(); }
  size_t worker_count() const { return pool_.worker_count(); }

  /// Read the slice into caller storage (out.size() must equal s.count();
  /// row-major layout with extent s.nx × s.ny × s.nz).
  void read(const Slice& s, std::span<f32> out);
  /// Convenience: allocate and return the slice.
  std::vector<f32> read(const Slice& s);

  /// Read `out.size()` consecutive elements of the flattened field starting
  /// at flat index `first` (crosses chunk boundaries transparently).
  void read_flat(size_t first, std::span<f32> out);

  ReaderStats stats() const { return cache_.stats(); }

 private:
  /// Chunk whose slab contains slowest-axis index `slow`.
  size_t chunk_at_slow(size_t slow) const;
  /// Chunk whose slab contains flat element index `elem`.
  size_t chunk_at_elem(size_t elem) const;
  /// Cache lookup; a prefetch miss schedules its decode on the pool, a
  /// demand miss comes back with `load` set for the caller to decode.
  ChunkCache::Lookup request(size_t id, bool prefetch);
  /// Decode chunk `id` into `entry` with `codec` (built here when null) at
  /// `fused_workers` strips, and publish it.  Never throws: a failure is
  /// published as the entry's error.  `worker` is the pool worker index,
  /// or kCaller for a demand decode on the calling thread.
  void fetch(size_t id, const ChunkCache::EntryPtr& entry,
             std::unique_ptr<Codec>& codec, size_t fused_workers,
             size_t worker);
  /// Demand decode of chunk `id` on the calling thread, on a leased codec.
  void load(size_t id, const ChunkCache::EntryPtr& entry);
  /// Look up chunks [first, last], decode the demand misses on this
  /// thread, issue the prefetches, and return the lookups to wait on.
  std::vector<ChunkCache::Lookup> acquire_range(size_t first, size_t last);
  /// Report the demand range to the prefetch policy and issue its picks.
  void prefetch_after(size_t first, size_t last);
  /// Copy the intersection of `s` and the chunk's slab into `out`.
  void assemble(const Slice& s, const ChunkCache::Entry& e,
                std::span<f32> out) const;

  // Declaration order is destruction order in reverse: the pool is declared
  // last so its join runs first (workers may touch every other member), and
  // the cache before the buffer pool dies (entries release leases into it).
  ByteSpan stream_;
  ContainerInfo info_;
  size_t plane_;  ///< elements per unit of the slowest-varying axis
  telemetry::Sink* sink_;
  BufferPool buffers_;
  ChunkCache cache_;
  std::mutex prefetch_mu_;
  Prefetcher prefetcher_;
  FzParams params_;  ///< codec parameters shared by every decode
  std::vector<std::unique_ptr<Codec>> codecs_;  ///< one per pool worker
  /// Demand-decode codecs free list (capacity: one per pool worker).
  std::mutex demand_mu_;
  std::vector<std::unique_ptr<Codec>> demand_codecs_;
  std::atomic<size_t> demand_in_flight_{0};
  ThreadPool pool_;
};

}  // namespace fz
