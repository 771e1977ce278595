#include "core/codec.hpp"

#include <cstddef>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/costs.hpp"
#include "core/format.hpp"

namespace fz {

namespace {

/// Returns the context's scratch leases to the pool when a run ends —
/// including by exception, so a failed run never strands a lease.
struct ScratchGuard {
  PipelineContext& ctx;
  ~ScratchGuard() { ctx.release_scratch(); }
};

/// Pool hit/miss counts before a run, for the run span's attribute delta.
/// Only captured when a sink is attached — stats() takes the pool mutex,
/// which the disabled-telemetry path must not pay.
struct PoolDelta {
  u64 hits = 0, misses = 0;
};

PoolDelta pool_delta(const BufferPool& pool, bool traced) {
  if (!traced) return {};
  const BufferPool::Stats s = pool.stats();
  return {s.hits, s.misses};
}

void finish_run_span(telemetry::Span& span, const PipelineContext& ctx,
                     const BufferPool& pool, const PoolDelta& before) {
  if (!span.enabled()) return;
  span.arg("bytes_in", static_cast<double>(ctx.stats.input_bytes));
  span.arg("bytes_out", static_cast<double>(ctx.stats.compressed_bytes));
  span.arg("tier", static_cast<double>(resolve_simd(ctx.params.simd)));
  span.arg("tiles",
           static_cast<double>(ctx.padded_codes() / kCodesPerTile));
  const BufferPool::Stats after = pool.stats();
  span.arg("pool_hits", static_cast<double>(after.hits - before.hits));
  span.arg("pool_misses", static_cast<double>(after.misses - before.misses));
}

}  // namespace

Codec::Codec(FzParams params)
    : params_(params),
      sink_(params.telemetry != nullptr ? params.telemetry
                                        : telemetry::active_sink()),
      compress_stages_(make_compress_stages()),
      compress_stages_fused_(make_compress_stages_fused()),
      decompress_stages_(make_decompress_stages()),
      decompress_stages_fused_(make_decompress_stages_fused()) {
  std::vector<ParamIssue> issues = params_.validate();
  if (!issues.empty()) throw ParamError(std::move(issues));
  pool_.set_telemetry(sink_);
}

void Codec::run_graph(const StageGraph& graph, const char* name) {
  const WorkerBudget budget(params_.fused_workers);  // bounds every fork
  ctx_.sink = sink_;
  const PoolDelta before = pool_delta(pool_, sink_ != nullptr);
  telemetry::Span run(sink_, name);
  ScratchGuard guard{ctx_};
  for (const auto& stage : graph) {
    telemetry::Span span(sink_, stage->name());
    stage->run(ctx_);
    span.arg("bytes_in", static_cast<double>(ctx_.stats.input_bytes));
  }
  finish_run_span(run, ctx_, pool_, before);
}

template <typename T>
void Codec::compress_impl(std::span<const T> data, Dims dims,
                          FzCompressed& out, bool with_costs) {
  out.bytes.clear();
  out.stage_costs.clear();
  out.stats = {};
  // params() hands out a mutable reference so callers can retune the bound
  // between runs; revalidate here so a bad mutation surfaces as ParamError
  // at the call boundary instead of failing deep inside a stage.  The happy
  // path returns an empty (allocation-free) issue vector.
  std::vector<ParamIssue> issues = params_.validate(dims);
  if (!issues.empty()) throw ParamError(std::move(issues));
  FZ_REQUIRE(!data.empty(), "cannot compress an empty field");
  FZ_REQUIRE(data.size() == dims.count(), "dims do not match data size");

  // The quant version chooses the graph: the fused graph has no V1
  // (outlier-list) tile body, and V2 runs nothing else.
  const StageGraph& graph = params_.quant == QuantVersion::V2Optimized
                                ? compress_stages_fused_
                                : compress_stages_;

  ctx_.begin_compress(&pool_, params_, dims, data.size(), sizeof(T),
                      data.data(), &out.bytes);
  run_graph(graph, "compress");
  out.stats = ctx_.stats;
  if (with_costs) out.stage_costs = fz_compression_costs(out.stats, params_);
}

FzCompressed Codec::compress(FloatSpan data, Dims dims) {
  FzCompressed out;
  compress_impl(data, dims, out, /*with_costs=*/true);
  return out;
}

FzCompressed Codec::compress(std::span<const f64> data, Dims dims) {
  FzCompressed out;
  compress_impl(data, dims, out, /*with_costs=*/true);
  return out;
}

Status Codec::try_compress(FloatSpan data, Dims dims,
                           FzCompressed& out) noexcept {
  try {
    compress_impl(data, dims, out, /*with_costs=*/false);
    return {};
  } catch (...) {
    out.bytes.clear();
    return detail::status_from_current_exception();
  }
}

Status Codec::try_compress(std::span<const f64> data, Dims dims,
                           FzCompressed& out) noexcept {
  try {
    compress_impl(data, dims, out, /*with_costs=*/false);
    return {};
  } catch (...) {
    out.bytes.clear();
    return detail::status_from_current_exception();
  }
}

template <typename T>
Dims Codec::decompress_into_impl(ByteSpan stream, std::span<T> out,
                                 std::vector<cudasim::CostSheet>* stage_costs) {
  // The stream's quant version chooses the graph, as on compress: peek the
  // quant byte (pinned at offset 6 by a format.hpp static_assert) to route
  // V2 streams to the fused decode and V1/legacy streams to the classic
  // graph.  Both graphs open with ParseHeaderStage, so a garbage peek on a
  // truncated or corrupt stream still fails with the graph-independent
  // format error.
  const bool v2_stream =
      stream.size() >= sizeof(StreamHeader) &&
      stream[offsetof(StreamHeader, quant)] ==
          static_cast<u8>(QuantVersion::V2Optimized);
  const StageGraph& graph =
      v2_stream ? decompress_stages_fused_ : decompress_stages_;

  ctx_.begin_decompress(&pool_, params_, stream, out.size(), sizeof(T),
                        out.data());
  run_graph(graph, "decompress");
  if (stage_costs != nullptr) {
    FzParams params;
    params.quant = ctx_.params.quant;
    *stage_costs = fz_decompression_costs(ctx_.stats, params);
  }
  return ctx_.dims;
}

Dims Codec::decompress_into(ByteSpan stream, std::span<f32> out,
                            std::vector<cudasim::CostSheet>* stage_costs) {
  return decompress_into_impl(stream, out, stage_costs);
}

Dims Codec::decompress_into(ByteSpan stream, std::span<f64> out,
                            std::vector<cudasim::CostSheet>* stage_costs) {
  return decompress_into_impl(stream, out, stage_costs);
}

FzDecompressed Codec::decompress(ByteSpan stream) {
  const StreamInfo info = inspect(stream);
  FzDecompressed out;
  out.data.resize(info.count);
  out.dims =
      decompress_into(stream, std::span<f32>{out.data}, &out.stage_costs);
  return out;
}

FzDecompressed64 Codec::decompress_f64(ByteSpan stream) {
  const StreamInfo info = inspect(stream);
  FzDecompressed64 out;
  out.data.resize(info.count);
  out.dims =
      decompress_into(stream, std::span<f64>{out.data}, &out.stage_costs);
  return out;
}

Status Codec::try_decompress_into(ByteSpan stream, std::span<f32> out,
                                  Dims* dims) noexcept {
  try {
    const Dims d = decompress_into_impl(stream, out, nullptr);
    if (dims != nullptr) *dims = d;
    return {};
  } catch (...) {
    return detail::status_from_current_exception();
  }
}

Status Codec::try_decompress_into(ByteSpan stream, std::span<f64> out,
                                  Dims* dims) noexcept {
  try {
    const Dims d = decompress_into_impl(stream, out, nullptr);
    if (dims != nullptr) *dims = d;
    return {};
  } catch (...) {
    return detail::status_from_current_exception();
  }
}

template <typename T>
Status Codec::try_decompress_impl(ByteSpan stream, std::vector<T>& data,
                                  Dims& dims,
                                  unsigned expected_dtype_bytes) noexcept {
  try {
    const StreamInfo info = inspect(stream);
    // Resize before the dtype check so an exact message comes from the
    // stage's own validation path (one wording for both entry points).
    if (info.dtype_bytes == expected_dtype_bytes) data.resize(info.count);
    dims = decompress_into_impl(stream, std::span<T>{data}, nullptr);
    return {};
  } catch (...) {
    return detail::status_from_current_exception();
  }
}

Status Codec::try_decompress(ByteSpan stream, FzDecompressed& out) noexcept {
  out.stage_costs.clear();
  return try_decompress_impl(stream, out.data, out.dims, sizeof(f32));
}

Status Codec::try_decompress(ByteSpan stream, FzDecompressed64& out) noexcept {
  out.stage_costs.clear();
  return try_decompress_impl(stream, out.data, out.dims, sizeof(f64));
}

}  // namespace fz
