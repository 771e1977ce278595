// The FZ stage graph (compression pipeline decomposed into explicit,
// swappable stages).
//
// Each stage is a discrete object with a name and a run() method over a
// shared PipelineContext.  The context carries the run's inputs (data,
// params or stream), the resolved parameters, every scratch buffer (leased
// from a BufferPool so steady-state runs never allocate), and the
// data-dependent results the next stage or the stream assembly needs.
//
// One graph per quant version: fz::Codec runs the fused graphs for V2 (the
// default, FZ's contribution) and the classic graphs for V1, choosing from
// FzParams::quant on compress and from the stream's quant byte on
// decompress.  No parameter routes V2 through the classic graphs; their V2
// branches serve only as the tests' reference (tests/reference_graph.hpp).
//
// The fused compress graph (V2):
//   ResolveTransformStage       validate input, resolve eb, optional log
//                               x-form; one read validates and ranges
//   FusedQuantShuffleMarkStage  quantize + Lorenzo + encode + bitshuffle +
//                               mark per tile per strip, appending only the
//                               nonzero blocks at each strip's cursor
//   AssembleStage               header + bit flags + strip runs in order
//
// The fused decompress graph (V2 streams):
//   ParseHeaderStage        validate header, slice stream sections
//   FusedDecodeStage        per-tile payload offsets by popcount, then
//                           scatter (from the stream, in place) + inverse
//                           bitshuffle + decode + inverse Lorenzo per
//                           strip (plane strips, or row strips spanning
//                           every plane for thin slabs), then carry +
//                           dequantize + inverse transform -> output
//
// The classic compress graph (V1; paper Fig. 1 unfused):
//   ResolveTransformStage   as above
//   DualQuantStage          pre-quantize + Lorenzo + residual codes (3.2)
//   BitshuffleMarkStage     tile bitshuffle + block flags (3.3/3.4 phase 1)
//   EncodeStage             prefix-sum offsets + block compaction (3.4)
//   AssembleStage           header + sections (+ outlier list) -> stream
//
// The classic decompress graph (V1 streams) mirrors it in reverse:
//   ParseHeaderStage        as above
//   ScatterUnshuffleStage   scatter nonzero blocks + inverse bitshuffle
//   InverseQuantStage       decode residuals + outliers + inverse Lorenzo
//   ReconstructStage        dequantize + inverse transform -> output
//
// fz::Codec (core/codec.hpp) owns a pool plus all four graphs and is the
// intended way to run them; fz_compress/fz_decompress are thin one-shot
// wrappers.  See docs/ARCHITECTURE.md.
#pragma once

#include <memory>
#include <vector>

#include "common/bits.hpp"
#include "common/pool.hpp"
#include "common/types.hpp"
#include "core/format.hpp"
#include "core/kernels_simd.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"

namespace fz {

/// Shared state threaded through a stage graph for one compress or
/// decompress run.  Reused across runs by fz::Codec: the pooled leases are
/// released at the end of each run (back to the pool, to be re-leased as
/// hits), and the small dynamic members keep their capacity.
struct PipelineContext {
  BufferPool* pool = nullptr;
  /// Resolved telemetry sink for the run (set by fz::Codec; may be null).
  /// Stages that fan work out to worker threads record their per-worker
  /// spans here — e.g. the tile-parallel fused pass's "fused-strip" spans.
  telemetry::Sink* sink = nullptr;

  // ---- run inputs ----------------------------------------------------------
  FzParams params;
  Dims dims;
  size_t count = 0;
  u8 dtype = sizeof(f32);
  const void* input = nullptr;  ///< compression: count elements of dtype
  std::vector<u8>* out_bytes = nullptr;  ///< compression output stream
  ByteSpan stream;              ///< decompression input
  void* output = nullptr;       ///< decompression: count elements of dtype

  // ---- resolved by the front stages ---------------------------------------
  double abs_eb = 0;
  bool log_transform = false;
  StreamHeader header{};  ///< decompression: validated header
  ByteSpan sec_bit_flags, sec_blocks, sec_outliers;  ///< stream sections

  // ---- pooled scratch ------------------------------------------------------
  PooledBuffer values;      ///< dtype[count]: log-transformed input copy
  PooledBuffer pq;          ///< i64[count]: pre-quantized / residuals
  PooledBuffer codes;       ///< u16[padded_codes()]
  PooledBuffer shuffled;    ///< u32[total_words()]; fused: strip block runs
  PooledBuffer byte_flags;  ///< u8[total_blocks()]
  PooledBuffer bit_flags;   ///< u8[ceil(total_blocks()/8)]
  PooledBuffer flags32;     ///< u32[total_blocks()]: scan input
  PooledBuffer offsets;     ///< u32[total_blocks()]: scan output;
                            ///< fused decode: u32[tiles + 1] tile offsets
  PooledBuffer scan_scratch;  ///< u32: blocked-scan chunk totals/offsets
  PooledBuffer blocks;      ///< u32: compacted blocks (worst case sized)
  PooledBuffer row_scratch;    ///< i64: fused pipeline strip scratch

  // ---- data-dependent results ---------------------------------------------
  i64 anchor = 0;
  u32 radius = 0;
  std::vector<Outlier> outliers;  ///< V1 only; capacity reused across runs
  size_t nonzero_blocks = 0;
  /// Compression: the nonzero-block runs AssembleStage writes, in stream
  /// order, as word offsets into `run_words` — one run per strip on the
  /// fused path (into `shuffled`), a single run into `blocks` otherwise.
  /// Capacity reused across runs.
  std::span<const u32> run_words;
  std::vector<FusedStripRun> block_runs;
  FzStats stats;

  /// Codes are padded with zeros to a whole number of 4096-byte tiles: the
  /// padding bitshuffles to zero blocks and costs only flag bits.
  size_t padded_codes() const { return round_up(count, kCodesPerTile); }
  size_t total_words() const {
    return padded_codes() * sizeof(u16) / sizeof(u32);
  }
  size_t total_blocks() const { return total_words() / kBlockWords; }

  template <typename T>
  std::span<const T> input_as() const {
    return {static_cast<const T*>(input), count};
  }
  template <typename T>
  std::span<T> output_as() {
    return {static_cast<T*>(output), count};
  }

  /// Prepare the context for a compression run (clears per-run state).
  void begin_compress(BufferPool* p, const FzParams& run_params, Dims run_dims,
                      size_t n, u8 run_dtype, const void* data,
                      std::vector<u8>* out);
  /// Prepare the context for a decompression run.  `run_params` carries
  /// only the host execution knobs (simd, fused_workers);
  /// everything stream-related comes from the parsed header.
  void begin_decompress(BufferPool* p, const FzParams& run_params,
                        ByteSpan run_stream, size_t n, u8 run_dtype,
                        void* out);
  /// Return every pooled lease to the pool (end of a run).
  void release_scratch();
};

/// A single pipeline stage.  Stages are stateless: all run state lives in
/// the context, so one stage object can serve any number of codecs.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual void run(PipelineContext& ctx) const = 0;
};

using StageGraph = std::vector<std::unique_ptr<Stage>>;

/// Validate a field and measure the value range a relative error bound
/// scales by, in one parallel read (parallel_finite_minmax).  Throws on
/// NaN/Inf; a constant field's zero range maps to max(|value|, 1).
double finite_value_range(FloatSpan data);
double finite_value_range(std::span<const f64> data);

/// Build the classic compression / decompression stage graphs (see file
/// comment): the V1 path, and the tests' V2 reference.
StageGraph make_compress_stages();
StageGraph make_decompress_stages();

/// The fused compression graph (V2): DualQuantStage + BitshuffleMarkStage
/// + EncodeStage are replaced by one FusedQuantShuffleMarkStage that
/// streams the input through cache-resident tiles (core/kernels_simd.hpp)
/// and compacts each tile's nonzero blocks as it flushes, never
/// materializing the i64 pre-quant array, the shuffled array or the block
/// offsets.  V2 quantization only; the output stream is byte-identical to
/// make_compress_stages().
StageGraph make_compress_stages_fused();

/// The fused decompress graph: ScatterUnshuffleStage + InverseQuantStage
/// + ReconstructStage are replaced by one FusedDecodeStage that reads the
/// stream's flag and payload sections in place, scatters,
/// inverse-bitshuffles, decodes and inverse-Lorenzo-scans tile by tile per
/// strip (fused_decode_plan), then dequantizes straight into the caller's
/// output (core/kernels_decode.hpp) — the block payload is never copied,
/// the shuffled-word and u16-code arrays never materialize and the i64
/// staging is written once and read once.  At one worker nothing forks.  V2
/// streams only (fz::Codec peeks the header and routes V1 streams to the
/// classic graph); the output is byte-identical to
/// make_decompress_stages().
StageGraph make_decompress_stages_fused();

}  // namespace fz
