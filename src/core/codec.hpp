// fz::Codec — a reusable compression/decompression engine.
//
// A Codec owns a BufferPool plus the compression and decompression stage
// graphs, and threads one PipelineContext through them per call.  The first
// call on each path allocates the scratch buffers (pool misses); every
// subsequent call of a same-shaped field is answered entirely from the pool
// (zero scratch heap allocations — see BufferPool::Stats and the
// CodecTest.SteadyStateDoesNotAllocate test).
//
// The one-shot fz_compress/fz_decompress functions in core/pipeline.hpp are
// thin wrappers that build a throwaway Codec; use a long-lived Codec when
// compressing many fields (a service, the chunked container, benchmarks).
//
// Thread-safety: a Codec is a single-threaded engine (one context, one
// pool).  Use one Codec per thread — fz_compress_chunked does exactly that
// for its parallel chunk workers.  The telemetry sink is the one shared
// piece: any number of codecs on any threads may point at the same
// fz::telemetry::Sink (it must be thread-safe, and fz::telemetry::Sink is —
// each thread appends spans to its own lock-free recorder and the recorders
// are merged only when the sink is flushed/exported).  This contract is
// exercised under ThreadSanitizer by test_threading.cpp
// (Threading.SharedTelemetrySinkAcrossWorkerCodecs).
#pragma once

#include <span>
#include <vector>

#include "common/pool.hpp"
#include "common/status.hpp"
#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "telemetry/telemetry.hpp"

namespace fz {

class Codec {
 public:
  explicit Codec(FzParams params = {}) ;

  // The pool (mutex) and the in-flight context pin a Codec in place.
  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;

  FzCompressed compress(FloatSpan data, Dims dims);
  FzCompressed compress(std::span<const f64> data, Dims dims);

  FzDecompressed decompress(ByteSpan stream);
  FzDecompressed64 decompress_f64(ByteSpan stream);

  // ---- non-throwing boundary ------------------------------------------------
  //
  // The try_* family is the service-facing API: identical work, but every
  // failure comes back as an fz::Status instead of an exception
  // (ParamError → InvalidParams, FormatError → InvalidStream, anything
  // else → Internal; the mapping lives in one place,
  // detail::status_from_current_exception).  fz::Service uses these as its
  // only error path, so no exception ever crosses the service boundary.
  //
  // try_compress reuses `out`: bytes and stats are overwritten with the
  // vector's capacity retained, so a warm steady-state call allocates
  // nothing.  Unlike compress(), it does NOT fill out.stage_costs (the
  // device cost sheets allocate per call; a service loop has no use for
  // them) — out.stage_costs is cleared, not populated.  On failure `out`
  // holds no stream (bytes cleared).

  Status try_compress(FloatSpan data, Dims dims, FzCompressed& out) noexcept;
  Status try_compress(std::span<const f64> data, Dims dims,
                      FzCompressed& out) noexcept;

  /// Decompress into `out.data`, resizing it to the stream's count (capacity
  /// is reused on repeat calls).  Does not fill out.stage_costs.
  Status try_decompress(ByteSpan stream, FzDecompressed& out) noexcept;
  Status try_decompress(ByteSpan stream, FzDecompressed64& out) noexcept;

  /// Allocation-free variant: decompress into caller storage (out.size()
  /// must equal the stream's count).  The stream's dims are written to
  /// *dims when non-null.
  Status try_decompress_into(ByteSpan stream, std::span<f32> out,
                             Dims* dims = nullptr) noexcept;
  Status try_decompress_into(ByteSpan stream, std::span<f64> out,
                             Dims* dims = nullptr) noexcept;

  /// Decompress into caller storage (out.size() must equal the stream's
  /// count — the header is validated against it).  Returns the stream's
  /// dims.  This is the allocation-free path the chunked container uses to
  /// write each chunk directly into its slab of the full field.
  Dims decompress_into(ByteSpan stream, std::span<f32> out,
                       std::vector<cudasim::CostSheet>* stage_costs = nullptr);
  Dims decompress_into(ByteSpan stream, std::span<f64> out,
                       std::vector<cudasim::CostSheet>* stage_costs = nullptr);

  const FzParams& params() const { return params_; }
  FzParams& params() { return params_; }

  /// The scratch pool — exposed for stats (tests, capacity planning) and
  /// trim().
  BufferPool& pool() { return pool_; }
  const BufferPool& pool() const { return pool_; }

  /// The resolved telemetry sink: FzParams::telemetry if set, else the
  /// FZ_TRACE env sink, else nullptr (all hooks disabled).
  telemetry::Sink* telemetry_sink() const { return sink_; }

 private:
  /// Run the prepared context through `graph` under a `name` run span.
  void run_graph(const StageGraph& graph, const char* name);
  /// Compress into `out` (bytes/stats overwritten, capacities reused).
  /// Fills out.stage_costs only when `with_costs`.
  template <typename T>
  void compress_impl(std::span<const T> data, Dims dims, FzCompressed& out,
                     bool with_costs);
  template <typename T>
  Dims decompress_into_impl(ByteSpan stream, std::span<T> out,
                            std::vector<cudasim::CostSheet>* stage_costs);
  template <typename T>
  Status try_decompress_impl(ByteSpan stream, std::vector<T>& data, Dims& dims,
                             unsigned expected_dtype_bytes) noexcept;

  FzParams params_;
  telemetry::Sink* sink_;
  BufferPool pool_;
  // One graph per quant version: the classic graphs run V1, the fused
  // graphs V2 (core/stages.hpp).
  StageGraph compress_stages_;
  StageGraph compress_stages_fused_;
  StageGraph decompress_stages_;
  StageGraph decompress_stages_fused_;
  PipelineContext ctx_;
};

}  // namespace fz
