#include "core/chunked.hpp"

#include <algorithm>
#include <memory>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/codec.hpp"
#include "core/format.hpp"
#include "core/stages.hpp"
#include "substrate/bitio.hpp"
#include "telemetry/telemetry.hpp"

namespace fz {

namespace {

/// Split the slowest-varying axis into `want` roughly equal slabs.
std::vector<std::pair<size_t, size_t>> plan_slabs(size_t extent, size_t want) {
  const size_t chunks = std::max<size_t>(1, std::min(want, extent));
  std::vector<std::pair<size_t, size_t>> slabs;
  const size_t base = extent / chunks;
  const size_t extra = extent % chunks;
  size_t begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t len = base + (c < extra ? 1 : 0);
    slabs.emplace_back(begin, len);
    begin += len;
  }
  return slabs;
}

size_t slowest_extent(Dims dims) {
  switch (dims.rank()) {
    case 1: return dims.x;
    case 2: return dims.y;
    default: return dims.z;
  }
}

Dims slab_dims(Dims dims, size_t len) {
  switch (dims.rank()) {
    case 1: return Dims{len};
    case 2: return Dims{dims.x, len};
    default: return Dims{dims.x, dims.y, len};
  }
}

/// One private Codec per worker slot: codec scratch pools are
/// single-threaded by design, and per-worker pooling is what lets a long
/// chunk sequence run allocation-free on every worker.
std::vector<std::unique_ptr<Codec>> make_worker_codecs(size_t workers,
                                                       const FzParams& params) {
  std::vector<std::unique_ptr<Codec>> codecs;
  codecs.reserve(workers);
  for (size_t w = 0; w < workers; ++w)
    codecs.push_back(std::make_unique<Codec>(params));
  return codecs;
}

size_t resolve_workers(size_t max_parallelism, size_t num_tasks) {
  const size_t cap =
      max_parallelism == 0 ? static_cast<size_t>(max_threads())
                           : max_parallelism;
  return std::max<size_t>(1, std::min(cap, num_tasks));
}

/// The chunk codecs' parameters: a nonzero cap with no explicit per-codec
/// budget splits evenly over the chunk workers, so the strips inside each
/// chunk never take the cores the cap leaves out.
FzParams chunk_codec_params(FzParams params, size_t max_parallelism,
                            size_t workers) {
  if (max_parallelism != 0 && params.fused_workers == 0)
    params.fused_workers = std::max<size_t>(1, max_parallelism / workers);
  return params;
}

telemetry::Sink* resolve_sink(const FzParams& params) {
  return params.telemetry != nullptr ? params.telemetry
                                     : telemetry::active_sink();
}

/// Reject corrupt dims before anything allocates on them; each extent is
/// checked separately so the product cannot overflow first.
Dims validated_container_dims(u64 nx, u64 ny, u64 nz, size_t stream_bytes) {
  const u64 max_count = static_cast<u64>(stream_bytes) * 512;
  FZ_FORMAT_REQUIRE(nx >= 1 && ny >= 1 && nz >= 1 && nx <= max_count &&
                        ny <= max_count && nz <= max_count,
                    "bad container dims");
  FZ_FORMAT_REQUIRE(nx * ny <= max_count && nx * ny * nz <= max_count,
                    "container dims exceed stream");
  return Dims{nx, ny, nz};
}

/// Validate one v2 index entry's byte range against the stream and its
/// chunk dims against the field's slab geometry.  `payload_pos` is the
/// first legal chunk byte (end of the index).  Used both by the full-index
/// walk and by the O(1) single-entry random-access path.
ChunkEntry validated_entry(const ChunkIndexEntry& e, Dims dims,
                           size_t payload_pos, size_t stream_bytes) {
  FZ_FORMAT_REQUIRE(e.bytes > 0 && e.bytes <= stream_bytes,
                    "chunk size exceeds container");
  FZ_FORMAT_REQUIRE(e.offset >= payload_pos && e.offset <= stream_bytes &&
                        e.offset + e.bytes <= stream_bytes,
                    "chunk bytes outside container");
  const Dims cd = validated_container_dims(e.nx, e.ny, e.nz, stream_bytes);
  // A chunk is a slab of the slowest axis: every faster extent must match
  // the field's, and the chunk must not out-rank the field.
  switch (dims.rank()) {
    case 1:
      FZ_FORMAT_REQUIRE(cd.y == 1 && cd.z == 1,
                        "chunk dims disagree with field");
      break;
    case 2:
      FZ_FORMAT_REQUIRE(cd.x == dims.x && cd.z == 1,
                        "chunk dims disagree with field");
      break;
    default:
      FZ_FORMAT_REQUIRE(cd.x == dims.x && cd.y == dims.y,
                        "chunk dims disagree with field");
      break;
  }
  FZ_FORMAT_REQUIRE(e.elem_offset <= dims.count(), "chunk element offset");
  ChunkEntry out;
  out.offset = static_cast<size_t>(e.offset);
  out.bytes = static_cast<size_t>(e.bytes);
  out.elem_offset = static_cast<size_t>(e.elem_offset);
  out.dims = cd;
  return out;
}

ContainerInfo read_info_v2(ByteSpan stream) {
  ByteReader r(stream);
  const auto h = r.get<ContainerHeaderV2>();
  FZ_FORMAT_REQUIRE(h.version == kContainerVersion,
                    "unsupported FZ container version");
  FZ_FORMAT_REQUIRE(h.rank >= 1 && h.rank <= 3, "bad container rank");
  FZ_FORMAT_REQUIRE(h.num_chunks > 0 && h.num_chunks < kMaxContainerChunks,
                    "bad chunk count");
  ContainerInfo info;
  info.version = kContainerVersion;
  info.dims = validated_container_dims(h.nx, h.ny, h.nz, stream.size());
  info.count = info.dims.count();
  info.stream_bytes = stream.size();
  info.header_bytes =
      sizeof(ContainerHeaderV2) + h.num_chunks * sizeof(ChunkIndexEntry);
  FZ_FORMAT_REQUIRE(info.header_bytes <= stream.size(), "container truncated");

  // Walk the index once, validating that the byte ranges stay in bounds and
  // never overlap, and that the element ranges exactly tile the field — a
  // corrupt index must be rejected before any decode trusts it.
  info.chunks.reserve(h.num_chunks);
  size_t prev_end = info.header_bytes;
  size_t next_elem = 0;
  for (u32 c = 0; c < h.num_chunks; ++c) {
    const ChunkEntry e = validated_entry(r.get<ChunkIndexEntry>(), info.dims,
                                         info.header_bytes, stream.size());
    FZ_FORMAT_REQUIRE(e.offset >= prev_end, "overlapping chunk index entries");
    FZ_FORMAT_REQUIRE(e.elem_offset == next_elem,
                      "chunk index does not tile the field");
    prev_end = e.offset + e.bytes;
    next_elem += e.dims.count();
    info.chunks.push_back(e);
  }
  FZ_FORMAT_REQUIRE(next_elem == info.count,
                    "chunk index does not cover the field");
  return info;
}

ContainerInfo read_info_v1(ByteSpan stream) {
  ByteReader r(stream);
  const auto h = r.get<ContainerHeaderV1>();
  FZ_FORMAT_REQUIRE(h.num_chunks > 0 && h.num_chunks < kMaxContainerChunks,
                    "bad chunk count");
  ContainerInfo info;
  info.version = 1;
  info.dims = validated_container_dims(h.nx, h.ny, h.nz, stream.size());
  info.count = info.dims.count();
  info.stream_bytes = stream.size();

  // Legacy layout: a size table only.  Synthesize the index the v2 format
  // records directly — offsets by summing sizes, placement by recomputing
  // the writer's slab plan.
  std::vector<u64> sizes(h.num_chunks);
  for (auto& s : sizes) {
    s = r.get<u64>();
    // Bound each size so the offset accumulation below cannot overflow.
    FZ_FORMAT_REQUIRE(s <= stream.size(), "chunk size exceeds container");
  }
  info.header_bytes = r.pos();
  const size_t plane = info.count / slowest_extent(info.dims);
  const auto slabs = plan_slabs(slowest_extent(info.dims), h.num_chunks);
  FZ_FORMAT_REQUIRE(slabs.size() == h.num_chunks,
                    "chunk count disagrees with container dims");
  info.chunks.reserve(h.num_chunks);
  size_t offset = info.header_bytes;
  for (u32 c = 0; c < h.num_chunks; ++c) {
    FZ_FORMAT_REQUIRE(offset + sizes[c] <= stream.size(),
                      "container truncated");
    ChunkEntry e;
    e.offset = offset;
    e.bytes = static_cast<size_t>(sizes[c]);
    e.elem_offset = slabs[c].first * plane;
    e.dims = slab_dims(info.dims, slabs[c].second);
    info.chunks.push_back(e);
    offset += sizes[c];
  }
  return info;
}

}  // namespace

ChunkedCompressed fz_compress_chunked(FloatSpan data, Dims dims,
                                      const ChunkedParams& params) {
  FZ_REQUIRE(data.size() == dims.count() && !data.empty(),
             "chunked: bad input");
  // The range pass below forks outside any codec run: bound it by the cap.
  const WorkerBudget budget(params.max_parallelism != 0
                                ? params.max_parallelism
                                : worker_budget());
  // Resolve the error bound once over the WHOLE field so every chunk uses
  // the same absolute bound (a per-chunk range would change the semantics).
  FzParams base = params.base;
  if (base.eb.mode == ErrorBoundMode::Relative)
    base.eb = ErrorBound::absolute(base.eb.value * finite_value_range(data));

  const size_t plane = dims.count() / slowest_extent(dims);
  const auto slabs = plan_slabs(slowest_extent(dims), params.num_chunks);

  ChunkedCompressed out;
  out.num_chunks = slabs.size();
  std::vector<FzCompressed> parts(slabs.size());
  // Chunks are independent — this is the multi-GPU axis (each task would
  // run on its own device).  Workers claim chunks dynamically; the parts
  // array keeps chunk order, so the container bytes do not depend on the
  // schedule.
  const size_t workers = resolve_workers(params.max_parallelism, slabs.size());
  auto codecs = make_worker_codecs(
      workers, chunk_codec_params(base, params.max_parallelism, workers));
  telemetry::Sink* sink = resolve_sink(base);
  telemetry::Span total(sink, "compress-chunked");
  parallel_tasks(slabs.size(), workers, [&](size_t c, size_t w) {
    const auto [begin, len] = slabs[c];
    // One span per chunk, recorded on the claiming worker's thread, so the
    // exported trace shows each worker's timeline and any scheduling gaps.
    telemetry::Span span(sink, "chunk-compress");
    parts[c] = codecs[w]->compress(data.subspan(begin * plane, len * plane),
                                   slab_dims(dims, len));
    if (span.enabled()) {
      span.arg("chunk", static_cast<double>(c));
      span.arg("worker", static_cast<double>(w));
      span.arg("bytes_in", static_cast<double>(len * plane * sizeof(f32)));
      span.arg("bytes_out", static_cast<double>(parts[c].bytes.size()));
    }
  });

  // v2: header, then the chunk index (offset/bytes/element placement per
  // chunk — the random-access substrate), then the chunk streams.
  ByteWriter w(out.bytes);
  ContainerHeaderV2 h{};
  h.magic = kContainerMagic;
  h.sentinel = kContainerV2Sentinel;
  h.version = kContainerVersion;
  h.rank = static_cast<u8>(dims.rank());
  h.num_chunks = static_cast<u32>(slabs.size());
  h.nx = dims.x;
  h.ny = dims.y;
  h.nz = dims.z;
  w.put(h);
  u64 offset = sizeof(ContainerHeaderV2) +
               static_cast<u64>(slabs.size()) * sizeof(ChunkIndexEntry);
  for (size_t c = 0; c < slabs.size(); ++c) {
    const Dims cd = slab_dims(dims, slabs[c].second);
    ChunkIndexEntry e{};
    e.offset = offset;
    e.bytes = parts[c].bytes.size();
    e.elem_offset = slabs[c].first * plane;
    e.nx = cd.x;
    e.ny = cd.y;
    e.nz = cd.z;
    w.put(e);
    offset += e.bytes;
  }
  for (const auto& p : parts) w.put_bytes(p.bytes);

  out.stats.count = data.size();
  out.stats.input_bytes = data.size() * sizeof(f32);
  out.stats.compressed_bytes = out.bytes.size();
  out.stats.abs_eb = parts.front().stats.abs_eb;
  for (const auto& p : parts) {
    out.stats.saturated += p.stats.saturated;
    out.stats.outliers += p.stats.outliers;
    out.stats.total_blocks += p.stats.total_blocks;
    out.stats.nonzero_blocks += p.stats.nonzero_blocks;
    out.chunk_costs.push_back(p.stage_costs);
  }
  if (total.enabled()) {
    total.arg("chunks", static_cast<double>(out.num_chunks));
    total.arg("workers", static_cast<double>(workers));
    total.arg("bytes_in", static_cast<double>(out.stats.input_bytes));
    total.arg("bytes_out", static_cast<double>(out.stats.compressed_bytes));
  }
  return out;
}

ContainerInfo fz_container_info(ByteSpan stream) {
  FZ_FORMAT_REQUIRE(is_container(stream), "not an FZ container");
  return is_container_v2(stream) ? read_info_v2(stream) : read_info_v1(stream);
}

size_t fz_chunk_count(ByteSpan stream) {
  // v2: the count is a header field — no index walk, no size-table sum.
  if (is_container_v2(stream)) {
    ByteReader r(stream);
    const auto h = r.get<ContainerHeaderV2>();
    FZ_FORMAT_REQUIRE(h.version == kContainerVersion,
                      "unsupported FZ container version");
    FZ_FORMAT_REQUIRE(h.num_chunks > 0 && h.num_chunks < kMaxContainerChunks,
                      "bad chunk count");
    return h.num_chunks;
  }
  return fz_container_info(stream).chunks.size();
}

FzDecompressed fz_decompress_chunk(ByteSpan stream, size_t index,
                                   size_t* offset_out) {
  ChunkEntry entry;
  if (is_container_v2(stream)) {
    // O(1) random access: validate the header, then read exactly the one
    // index entry this chunk needs.  The chunk stream itself is a fully
    // self-describing single-field stream, so decode validates the rest.
    ByteReader r(stream);
    const auto h = r.get<ContainerHeaderV2>();
    FZ_FORMAT_REQUIRE(h.version == kContainerVersion,
                      "unsupported FZ container version");
    FZ_FORMAT_REQUIRE(h.num_chunks > 0 && h.num_chunks < kMaxContainerChunks,
                      "bad chunk count");
    FZ_FORMAT_REQUIRE(index < h.num_chunks, "chunk index out of range");
    const Dims dims =
        validated_container_dims(h.nx, h.ny, h.nz, stream.size());
    const size_t payload_pos =
        sizeof(ContainerHeaderV2) + h.num_chunks * sizeof(ChunkIndexEntry);
    FZ_FORMAT_REQUIRE(payload_pos <= stream.size(), "container truncated");
    ByteReader at(stream.subspan(sizeof(ContainerHeaderV2) +
                                 index * sizeof(ChunkIndexEntry)));
    entry = validated_entry(at.get<ChunkIndexEntry>(), dims, payload_pos,
                            stream.size());
  } else {
    // Legacy fallback: the size-table walk (O(chunks)).
    const ContainerInfo info = fz_container_info(stream);
    FZ_FORMAT_REQUIRE(index < info.chunks.size(), "chunk index out of range");
    entry = info.chunks[index];
  }
  FzDecompressed d =
      fz_decompress(stream.subspan(entry.offset, entry.bytes));
  FZ_FORMAT_REQUIRE(d.dims == entry.dims,
                    "chunk stream dims disagree with container index");
  if (offset_out != nullptr) *offset_out = entry.elem_offset;
  return d;
}

FzDecompressed fz_decompress_chunked(ByteSpan stream, size_t max_parallelism) {
  const ContainerInfo info = fz_container_info(stream);
  // The validated index places every chunk: element ranges tile the field
  // exactly (checked in fz_container_info), so workers can decompress
  // concurrently each into its own disjoint slab of the output (no gather
  // pass).  A chunk whose own header count disagrees with its index dims is
  // rejected by decompress_into's span-length check.
  FzDecompressed out;
  out.dims = info.dims;
  out.data.resize(info.count);
  std::vector<std::vector<cudasim::CostSheet>> chunk_costs(info.chunks.size());
  const size_t workers = resolve_workers(max_parallelism, info.chunks.size());
  auto codecs = make_worker_codecs(
      workers, chunk_codec_params(FzParams{}, max_parallelism, workers));
  telemetry::Sink* sink = resolve_sink(FzParams{});
  telemetry::Span total(sink, "decompress-chunked");
  parallel_tasks(info.chunks.size(), workers, [&](size_t c, size_t w) {
    const ChunkEntry& e = info.chunks[c];
    const ByteSpan chunk = stream.subspan(e.offset, e.bytes);
    telemetry::Span span(sink, "chunk-decompress");
    const Dims d = codecs[w]->decompress_into(
        chunk,
        std::span<f32>{out.data}.subspan(e.elem_offset, e.dims.count()),
        &chunk_costs[c]);
    FZ_FORMAT_REQUIRE(d == e.dims,
                      "chunk stream dims disagree with container index");
    if (span.enabled()) {
      span.arg("chunk", static_cast<double>(c));
      span.arg("worker", static_cast<double>(w));
      span.arg("bytes_in", static_cast<double>(chunk.size()));
      span.arg("bytes_out", static_cast<double>(e.dims.count() * sizeof(f32)));
    }
  });
  for (auto& costs : chunk_costs)
    for (auto& sheet : costs) out.stage_costs.push_back(sheet);
  return out;
}

StreamInfo inspect_container(ByteSpan stream) {
  const ContainerInfo info = fz_container_info(stream);
  StreamInfo out;
  out.container_version = info.version;
  out.chunks = info.chunks;
  out.dims = info.dims;
  out.count = info.count;
  out.stream_bytes = info.stream_bytes;
  out.header_bytes = info.header_bytes;
  // Compression parameters are uniform across chunks by construction (one
  // absolute bound resolved over the whole field); take them from chunk 0
  // and sum the per-chunk section layouts.
  bool first = true;
  for (const ChunkEntry& e : info.chunks) {
    const StreamInfo chunk = inspect(stream.subspan(e.offset, e.bytes));
    FZ_FORMAT_REQUIRE(chunk.dims == e.dims && chunk.container_version == 0,
                      "chunk stream dims disagree with container index");
    if (first) {
      out.dtype_bytes = chunk.dtype_bytes;
      out.format_version = chunk.format_version;
      out.quant = chunk.quant;
      out.abs_eb = chunk.abs_eb;
      out.log_transform = chunk.log_transform;
      out.radius = chunk.radius;
      first = false;
    }
    out.header_bytes += chunk.header_bytes;
    out.bit_flag_bytes += chunk.bit_flag_bytes;
    out.block_bytes += chunk.block_bytes;
    out.outlier_bytes += chunk.outlier_bytes;
    out.total_blocks += chunk.total_blocks;
    out.nonzero_blocks += chunk.nonzero_blocks;
    out.saturated += chunk.saturated;
  }
  return out;
}

}  // namespace fz
