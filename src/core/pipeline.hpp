// The FZ compressor: optimized dual-quantization → bitshuffle → fast
// sparsification encoding (paper §3, Fig. 1).
//
// The engine behind everything here is fz::Codec (core/codec.hpp); the
// fz_compress/fz_decompress free functions are thin conveniences that build
// a throwaway Codec per call.  Hold a Codec when compressing repeatedly —
// its scratch pool makes steady-state calls allocation-free.  Include
// "fz.hpp" to get both plus the rest of the public surface.
//
// Usage:
//   fz::FzParams params;
//   params.eb = fz::ErrorBound::relative(1e-3);
//   auto compressed = fz::fz_compress(field.values(), field.dims, params);
//   auto restored   = fz::fz_decompress(compressed.bytes);
//
// The compressed stream is self-describing (dims, error bound, and quant
// version travel in the header).  Every compression also returns the
// data-dependent statistics (saturation count, nonzero-block count, ...)
// and the per-stage device cost sheets consumed by the benchmark figures.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "core/quantizer.hpp"
#include "cudasim/cost_sheet.hpp"

namespace fz::telemetry {
class Sink;
}  // namespace fz::telemetry

namespace fz {

enum class QuantVersion : u8 {
  V1Original = 1,   ///< cuSZ-style: radius shift + outlier list (ablation)
  V2Optimized = 2,  ///< FZ: sign-magnitude, no outliers (the default)
};

/// One problem found by FzParams::validate(): which field is wrong and why.
struct ParamIssue {
  const char* field;    ///< parameter name ("eb", "radius", "dims", ...)
  std::string message;  ///< human-readable explanation
};

/// Thrown when a Codec is built from (or run with) invalid parameters.  One
/// error type for every misuse, carrying the full structured issue list, so
/// callers catch configuration mistakes up front instead of deep-in-stage
/// Error throws.
class ParamError : public Error {
 public:
  explicit ParamError(std::vector<ParamIssue> issues);
  const std::vector<ParamIssue>& issues() const { return issues_; }

 private:
  std::vector<ParamIssue> issues_;
};

/// Compression parameters and host execution knobs.  The quant version
/// chooses the stage graph (core/stages.hpp): V2 runs the fused graphs,
/// V1 the classic ones.  The fields after `radius` are host execution
/// knobs: none of them changes the stream.
struct FzParams {
  ErrorBound eb = ErrorBound::relative(1e-3);
  QuantVersion quant = QuantVersion::V2Optimized;
  /// V1-only: quantization radius.
  u32 radius = 512;
  /// Host execution: the worker budget of a run — the strip count of the
  /// fused passes and V1 inverse-Lorenzo scans, and the bound on every
  /// other fork (1 = calling thread only; 0 = max_threads()).  Every
  /// worker count emits byte-identical streams and values — pinned by
  /// tests/test_fused_parallel.cpp and tests/test_golden.cpp.  A fresh
  /// output lease is first-touched in strip shape, so on a multi-node box
  /// each strip's pages land near the worker that fills them.
  size_t fused_workers = 0;
  /// Host execution: SIMD tier for the vectorized kernels.  Auto resolves
  /// from the FZ_SIMD env var / CPUID; every tier is bit-identical, so this
  /// never changes the stream either.
  SimdDispatch simd = SimdDispatch::Auto;
  /// Observability sink (src/telemetry/): when set, every stage, chunk, and
  /// pool interaction records spans/counters into it.  The sink must be
  /// thread-safe (fz::telemetry::Sink is); it must outlive every codec that
  /// holds it.  When null, telemetry::active_sink() is consulted instead
  /// (the innermost ScopedSink, else the FZ_TRACE env-var sink); with no
  /// sink anywhere, all hooks reduce to one branch-on-nullptr and the
  /// output stream is byte-identical.
  telemetry::Sink* telemetry = nullptr;

  /// Check parameters for consistency; returns the (possibly empty) issue
  /// list rather than throwing so callers can render all problems at once.
  /// fz::Codec calls this at construction and throws ParamError on any
  /// issue — misuse fails fast with one error type instead of deep-in-stage
  /// throws.
  std::vector<ParamIssue> validate() const;
  /// Also validate a concrete field shape (zero extents, count overflow).
  std::vector<ParamIssue> validate(Dims dims) const;
};

struct FzStats {
  size_t count = 0;            ///< number of f32 values
  size_t input_bytes = 0;
  size_t compressed_bytes = 0;
  double abs_eb = 0;           ///< resolved absolute error bound
  size_t saturated = 0;        ///< V2: clipped residuals
  size_t outliers = 0;         ///< V1: out-of-radius residuals
  size_t total_blocks = 0;
  size_t nonzero_blocks = 0;
  double ratio() const {
    return compressed_bytes == 0
               ? 0
               : static_cast<double>(input_bytes) / compressed_bytes;
  }
  double bitrate() const { return ratio() == 0 ? 0 : 32.0 / ratio(); }
};

struct FzCompressed {
  std::vector<u8> bytes;
  FzStats stats;
  /// Modeled device cost sheets of the kernels FZ ships, in pipeline
  /// order: "pred-quant-v1"/"pred-quant-v2", "bitshuffle-mark-fused",
  /// "prefix-sum-encode" (fz_compression_costs; the split bitshuffle +
  /// mark kernels are priced by fz_split_bitshuffle_mark_costs).
  std::vector<cudasim::CostSheet> stage_costs;
};

FzCompressed fz_compress(FloatSpan data, Dims dims, const FzParams& params);

/// Double-precision input: the pipeline is identical (pre-quantization is
/// the only dtype-dependent stage), the stream records the dtype, and the
/// u16 residual codes impose the same saturation behaviour.  Note that a
/// very tight bound relative to f64 precision will saturate residuals the
/// way it never could for f32 — check FzStats::saturated.
FzCompressed fz_compress_f64(std::span<const f64> data, Dims dims,
                             const FzParams& params);

struct FzDecompressed {
  std::vector<f32> data;
  Dims dims;
  std::vector<cudasim::CostSheet> stage_costs;
};

struct FzDecompressed64 {
  std::vector<f64> data;
  Dims dims;
  std::vector<cudasim::CostSheet> stage_costs;
};

/// Decompress an f32 stream (throws FormatError on an f64 stream).
FzDecompressed fz_decompress(ByteSpan stream);
/// Decompress an f64 stream (throws FormatError on an f32 stream).
FzDecompressed64 fz_decompress_f64(ByteSpan stream);

/// One validated chunk-index record of a chunked container: where the
/// chunk's bytes live, how large they are, and which slab of the field they
/// reconstruct.  Parsed from the v2 on-stream index (core/format.hpp), or
/// synthesized from the legacy v1 size table plus the slab plan.
struct ChunkEntry {
  size_t offset = 0;       ///< byte offset of the chunk stream in the container
  size_t bytes = 0;        ///< compressed byte size
  size_t elem_offset = 0;  ///< first element's index in the flattened field
  Dims dims;               ///< chunk dims (slab of the slowest-varying axis)
};

/// Everything a stream's header declares, fully validated: identity (dims,
/// dtype, count), compression parameters (error bound, quant version,
/// transform), format version, and the byte layout of every section.
/// Returned by fz::inspect, consumed by the CLI `info` command and any
/// service that routes streams without decompressing them.
///
/// fz::inspect also accepts chunked containers: `container_version` is then
/// nonzero, `chunks` holds the validated chunk index, the identity fields
/// describe the whole field, the compression parameters come from chunk 0
/// (uniform across chunks by construction), and the section byte counts are
/// sums over the chunks.
struct StreamInfo {
  Dims dims;
  size_t count = 0;
  unsigned dtype_bytes = 4;   ///< 4 = f32 stream, 8 = f64 stream
  unsigned format_version = 0;
  QuantVersion quant = QuantVersion::V2Optimized;
  double abs_eb = 0;
  bool log_transform = false;  ///< point-wise relative bound (log domain)
  u32 radius = 0;              ///< V1 only

  // Section layout, in stream order; header_bytes + bit_flag_bytes +
  // block_bytes + outlier_bytes == stream_bytes.
  size_t header_bytes = 0;
  size_t bit_flag_bytes = 0;
  size_t block_bytes = 0;
  size_t outlier_bytes = 0;
  size_t stream_bytes = 0;

  size_t total_blocks = 0;
  size_t nonzero_blocks = 0;
  size_t saturated = 0;  ///< V2: residuals clipped during encoding

  // Chunked containers only (fz_compress_chunked streams).
  unsigned container_version = 0;   ///< 0 = single-field stream
  std::vector<ChunkEntry> chunks;   ///< validated chunk index

  double ratio() const {
    return stream_bytes == 0 ? 0
                             : static_cast<double>(count) * dtype_bytes /
                                   static_cast<double>(stream_bytes);
  }
};

/// Parse and validate a stream's header without decompressing.  Throws
/// FormatError on anything corrupt or truncated.
StreamInfo inspect(ByteSpan stream);

/// Non-throwing inspect: the service-boundary variant.  On failure `out` is
/// left untouched and the FormatError comes back as StatusCode::InvalidStream
/// (see common/status.hpp; exceptions are mapped exactly once, here and in
/// Codec::try_*).
Status try_inspect(ByteSpan stream, StreamInfo& out) noexcept;

namespace detail {
/// The one place exceptions become Status codes: rethrows the current
/// exception and maps ParamError → InvalidParams, FormatError →
/// InvalidStream, everything else → Internal.  Call only from a catch
/// block.  Every try_* boundary (Codec::try_compress/try_decompress,
/// fz::try_inspect, fz::Service) funnels through here so the taxonomy can
/// never drift between entry points.
Status status_from_current_exception();
}  // namespace detail

}  // namespace fz
