// fzlint:hot-path — the prefetcher mutex is taken on every read;
// fzlint flags allocation and blocking inside its critical section.
#include "reader/reader.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "core/codec.hpp"
#include "core/format.hpp"
#include "telemetry/telemetry.hpp"

namespace fz {

namespace {

/// fetch()'s worker index for a demand decode on the calling thread.
constexpr size_t kCaller = SIZE_MAX;

/// The container identity, or a single-field f32 stream wrapped as a
/// one-chunk container (version 0) so slicing works on any stream.
ContainerInfo make_info(ByteSpan stream) {
  if (is_container(stream)) return fz_container_info(stream);
  const StreamInfo s = inspect(stream);
  FZ_FORMAT_REQUIRE(s.dtype_bytes == sizeof(f32),
                    "fz::Reader reads f32 streams only");
  ContainerInfo info;
  info.version = 0;
  info.dims = s.dims;
  info.count = s.count;
  info.header_bytes = 0;
  info.stream_bytes = stream.size();
  info.chunks.push_back(ChunkEntry{0, stream.size(), 0, s.dims});
  return info;
}

size_t slow_extent(Dims d, int rank) {
  return rank == 1 ? d.x : rank == 2 ? d.y : d.z;
}

}  // namespace

Reader::Reader(ByteSpan stream, ReaderOptions options)
    : stream_(stream),
      info_(make_info(stream)),
      plane_(info_.count / slow_extent(info_.dims, info_.dims.rank())),
      // Same resolution as Codec: explicit sink, else the innermost
      // ScopedSink / FZ_TRACE env sink, else disabled.
      sink_(options.telemetry != nullptr ? options.telemetry
                                         : telemetry::active_sink()),
      cache_(options.cache_bytes, sink_),
      prefetcher_(options.max_prefetch),
      pool_(options.workers) {
  buffers_.set_telemetry(sink_);
  params_.telemetry = sink_;
  // Prefetches run one chunk per pool worker, so each keeps its decode
  // single-strip and the pool never oversubscribes.  A demand miss is
  // decoded on the calling thread instead — it is what the caller waits
  // for — and sets its codec's fused_workers per decode (load()), so one
  // miss spreads its fused decode strips over every core.
  params_.fused_workers = 1;
  codecs_.reserve(pool_.worker_count());
  for (size_t w = 0; w < pool_.worker_count(); ++w)
    codecs_.push_back(std::make_unique<Codec>(params_));
  // Reserved up front so returning a codec never grows the list under
  // demand_mu_; codecs themselves are built outside the lock (fetch()).
  demand_codecs_.reserve(pool_.worker_count());
}

Reader::~Reader() {
  // ThreadPool's destructor (first, by declaration order) discards queued
  // prefetches and joins in-flight decodes; their entries simply go
  // unpublished — no reader can be waiting once the destructor runs.
}

size_t Reader::chunk_at_slow(size_t slow) const {
  return chunk_at_elem(slow * plane_);
}

size_t Reader::chunk_at_elem(size_t elem) const {
  auto it = std::upper_bound(
      info_.chunks.begin(), info_.chunks.end(), elem,
      [](size_t v, const ChunkEntry& e) { return v < e.elem_offset; });
  return static_cast<size_t>(it - info_.chunks.begin()) - 1;
}

ChunkCache::Lookup Reader::request(size_t id, bool prefetch) {
  ChunkCache::Lookup l = cache_.acquire(id, prefetch);
  if (l.load && prefetch) {
    ChunkCache::EntryPtr entry = l.entry;
    pool_.submit([this, id, entry](size_t worker) {
      fetch(id, entry, codecs_[worker], 1, worker);
    });
  }
  return l;
}

void Reader::fetch(size_t id, const ChunkCache::EntryPtr& entry,
                   std::unique_ptr<Codec>& codec, size_t fused_workers,
                   size_t worker) {
  const ChunkEntry& c = info_.chunks[id];
  const bool demand = worker == kCaller;
  try {
    telemetry::Span span(sink_, "chunk-fetch");
    if (span.enabled()) {
      span.arg("chunk", static_cast<double>(id));
      if (!demand) span.arg("worker", static_cast<double>(worker));
      span.arg("bytes_in", static_cast<double>(c.bytes));
      span.arg("prefetch", demand ? 0 : 1);
      span.arg("demand", demand ? 1 : 0);
      span.arg("fused_workers", static_cast<double>(fused_workers));
    }
    if (codec == nullptr) codec = std::make_unique<Codec>(params_);
    codec->params().fused_workers = fused_workers;
    PooledBuffer buf =
        buffers_.acquire(c.dims.count() * sizeof(f32), /*zeroed=*/false);
    const Dims got = codec->decompress_into(
        stream_.subspan(c.offset, c.bytes), buf.as<f32>());
    FZ_FORMAT_REQUIRE(got == c.dims,
                      "chunk stream dims disagree with the container index");
    span.arg("bytes_out", static_cast<double>(buf.size()));
    entry->data = std::move(buf);
    entry->dims = got;
    entry->elem_offset = c.elem_offset;
  } catch (...) {
    entry->error = std::current_exception();
  }
  cache_.publish(id, entry, c.dims.count() * sizeof(f32));
}

void Reader::load(size_t id, const ChunkCache::EntryPtr& entry) {
  std::unique_ptr<Codec> codec;
  {
    const std::lock_guard<std::mutex> lock(demand_mu_);
    if (!demand_codecs_.empty()) {
      codec = std::move(demand_codecs_.back());
      demand_codecs_.pop_back();
    }
  }
  // Concurrent demand decodes split the cores between them.
  const size_t in_flight = demand_in_flight_.fetch_add(1) + 1;
  fetch(id, entry, codec, std::max<size_t>(1, pool_.worker_count() / in_flight),
        kCaller);
  demand_in_flight_.fetch_sub(1);
  if (codec == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(demand_mu_);
    // Within the capacity reserved in the constructor: no allocation.
    if (demand_codecs_.size() < demand_codecs_.capacity())
      demand_codecs_.push_back(std::move(codec));  // fzlint:allow(lock-discipline)
  }
  // A codec past the list's capacity is destroyed here, unlocked.
}

std::vector<ChunkCache::Lookup> Reader::acquire_range(size_t first,
                                                     size_t last) {
  std::vector<ChunkCache::Lookup> lookups;
  lookups.reserve(last - first + 1);
  // Decode every chunk this caller must load before waiting on anyone
  // else's, so no caller ever waits while holding an unpublished load.
  // load() never throws, so every load acquired gets published — also
  // when a later lookup throws.
  const auto load_owned = [&] {
    for (size_t k = 0; k < lookups.size(); ++k)
      if (lookups[k].load) load(first + k, lookups[k].entry);
  };
  try {
    for (size_t id = first; id <= last; ++id)
      lookups.push_back(request(id, false));
  } catch (...) {
    load_owned();
    throw;
  }
  load_owned();
  prefetch_after(first, last);
  return lookups;
}

void Reader::prefetch_after(size_t first, size_t last) {
  std::vector<size_t> ahead;
  {
    const std::lock_guard<std::mutex> lock(prefetch_mu_);
    ahead = prefetcher_.on_access(first, last, info_.chunks.size());
  }
  for (size_t id : ahead) request(id, true);
}

void Reader::read(const Slice& s, std::span<f32> out) {
  const Dims d = info_.dims;
  FZ_REQUIRE(s.nx >= 1 && s.ny >= 1 && s.nz >= 1,
             "Reader::read: every slice extent must be nonzero");
  FZ_REQUIRE(s.x <= d.x && s.nx <= d.x - s.x && s.y <= d.y &&
                 s.ny <= d.y - s.y && s.z <= d.z && s.nz <= d.z - s.z,
             "Reader::read: slice exceeds the field bounds");
  FZ_REQUIRE(out.size() == s.count(),
             "Reader::read: output size != slice element count");
  telemetry::Span span(sink_, "reader-read");
  span.arg("elems", static_cast<double>(out.size()));
  const int rank = d.rank();
  const size_t s0 = rank == 1 ? s.x : rank == 2 ? s.y : s.z;
  const size_t sn = rank == 1 ? s.nx : rank == 2 ? s.ny : s.nz;
  const size_t c0 = chunk_at_slow(s0);
  const size_t c1 = chunk_at_slow(s0 + sn - 1);
  span.arg("chunks", static_cast<double>(c1 - c0 + 1));
  for (const ChunkCache::Lookup& l : acquire_range(c0, c1)) {
    cache_.wait_ready(l.entry);
    assemble(s, *l.entry, out);
  }
}

std::vector<f32> Reader::read(const Slice& s) {
  std::vector<f32> out(s.count());
  read(s, out);
  return out;
}

void Reader::read_flat(size_t first, std::span<f32> out) {
  if (out.empty()) return;
  FZ_REQUIRE(first <= info_.count && out.size() <= info_.count - first,
             "Reader::read_flat: range exceeds the field");
  telemetry::Span span(sink_, "reader-read");
  span.arg("elems", static_cast<double>(out.size()));
  const size_t c0 = chunk_at_elem(first);
  const size_t c1 = chunk_at_elem(first + out.size() - 1);
  span.arg("chunks", static_cast<double>(c1 - c0 + 1));
  for (const ChunkCache::Lookup& l : acquire_range(c0, c1)) {
    cache_.wait_ready(l.entry);
    const std::span<const f32> src = l.entry->data.as<f32>();
    const size_t b = l.entry->elem_offset;
    const size_t lo = std::max(first, b);
    const size_t hi = std::min(first + out.size(), b + src.size());
    std::memcpy(out.data() + (lo - first), src.data() + (lo - b),
                (hi - lo) * sizeof(f32));
  }
}

void Reader::assemble(const Slice& s, const ChunkCache::Entry& e,
                      std::span<f32> out) const {
  const Dims d = info_.dims;
  const int rank = d.rank();
  const std::span<const f32> src = e.data.as<f32>();
  const size_t b = e.elem_offset / plane_;  // chunk's first slowest index
  const size_t len = slow_extent(e.dims, rank);
  const size_t s0 = rank == 1 ? s.x : rank == 2 ? s.y : s.z;
  const size_t sn = rank == 1 ? s.nx : rank == 2 ? s.ny : s.nz;
  const size_t lo = std::max(s0, b);
  const size_t hi = std::min(s0 + sn, b + len);
  if (lo >= hi) return;
  switch (rank) {
    case 1:
      std::memcpy(out.data() + (lo - s.x), src.data() + (lo - b),
                  (hi - lo) * sizeof(f32));
      break;
    case 2:
      for (size_t y = lo; y < hi; ++y)
        std::memcpy(out.data() + (y - s.y) * s.nx,
                    src.data() + (y - b) * d.x + s.x, s.nx * sizeof(f32));
      break;
    default:
      for (size_t z = lo; z < hi; ++z)
        for (size_t y = s.y; y < s.y + s.ny; ++y)
          std::memcpy(
              out.data() + ((z - s.z) * s.ny + (y - s.y)) * s.nx,
              src.data() + ((z - b) * d.y + y) * d.x + s.x,
              s.nx * sizeof(f32));
      break;
  }
}

}  // namespace fz
