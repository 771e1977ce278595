#include "workloads.hpp"

#include <cstdio>
#include <cstring>
#include <thread>

#include "common/rng.hpp"
#include "core/chunked.hpp"
#include "core/codec.hpp"
#include "datasets/generators.hpp"
#include "reader/reader.hpp"
#include "service/service.hpp"
#include "telemetry/telemetry.hpp"
#include "tracer.hpp"

namespace fzbench {

const char* const kWorkloads[4] = {"bulk-large", "small-mixed", "reader-slices",
                                   "service-mixed"};

bool is_workload(const std::string& name) {
  for (const char* w : kWorkloads)
    if (name == w) return true;
  return false;
}

namespace {

using fz::Dataset;
using fz::Dims;

/// The paper's default: range-relative error bound 1e-3.
constexpr fz::ErrorBound kEb = fz::ErrorBound::relative(1e-3);

/// Generator seed of input `k` of a run seeded with `seed`.
u64 input_seed(u64 seed, u64 k) { return seed * 1000003ull + k; }

std::string fmt(const char* f, double a, double b = 0, double c = 0,
                double d = 0, double e = 0, double g = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c, d, e, g);
  return buf;
}

struct FieldSpec {
  Dataset ds;
  Dims dims;
  bool f64 = false;  ///< widen the generated f32 field to f64
};

/// A generated input field, f32 or f64.
struct Input {
  std::string label;
  Dims dims;
  bool is_f64 = false;
  std::vector<f32> v32;
  std::vector<f64> v64;

  size_t bytes() const { return is_f64 ? v64.size() * 8 : v32.size() * 4; }
};

Input make_input(const FieldSpec& s, u64 seed) {
  fz::Field f = fz::generate_field(s.ds, s.dims, seed);
  Input in;
  in.label = std::string(fz::dataset_name(s.ds)) + (s.f64 ? "-f64" : "");
  in.dims = s.dims;
  in.is_f64 = s.f64;
  if (s.f64) {
    in.v64.assign(f.data.begin(), f.data.end());
  } else {
    in.v32 = std::move(f.data);
  }
  return in;
}

std::string dims_str(Dims d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%zux%zux%zu", d.x, d.y, d.z);
  return buf;
}

/// Latency histogram with power-of-two microsecond buckets, one line.
std::string histogram_line(const char* what, const std::vector<double>& us) {
  std::vector<size_t> bucket(32, 0);
  for (double v : us) {
    size_t b = 0;
    while (b + 1 < bucket.size() && v >= static_cast<double>(size_t{2} << b)) ++b;
    ++bucket[b];
  }
  std::string s = std::string(what) + " histogram (us bucket: count):";
  for (size_t b = 0; b < bucket.size(); ++b)
    if (bucket[b] != 0)
      s += fmt(" <%.0f:%.0f", static_cast<double>(size_t{2} << b),
               static_cast<double>(bucket[b]));
  return s;
}

// ---- codec workloads ----------------------------------------------------------

/// One caller and one long-lived fz::Codec at default workers.  Each
/// iteration compresses a field (the stream must equal the field's first
/// stream byte for byte), then decompresses it into a caller buffer (every
/// value must be within FzStats::abs_eb).  Fields are visited round-robin.
class CodecWorkload final : public Workload {
 public:
  CodecWorkload(std::vector<FieldSpec> specs, u64 seed, int reps)
      : specs_(std::move(specs)), seed_(seed), reps_(reps) {}

  int setup_reps() const override { return reps_; }

  void setup() override {
    codec_.reset();
    inputs_.clear();
    refs_.clear();
    for (size_t k = 0; k < specs_.size(); ++k)
      inputs_.push_back(make_input(specs_[k], input_seed(seed_, k)));
    size_t n32 = 0, n64 = 0;
    for (const Input& in : inputs_)
      (in.is_f64 ? n64 : n32) = std::max(in.is_f64 ? n64 : n32, in.dims.count());
    out32_.assign(n32, 0.0f);
    out64_.assign(n64, 0.0);
    refs_.assign(inputs_.size(), {});
    build_codec(nullptr);
  }

  void attach_sink(fz::telemetry::Sink* sink) override {
    codec_.reset();
    build_codec(sink);
  }

  double ratio() const override {
    double in = 0, out = 0;
    for (size_t k = 0; k < inputs_.size(); ++k) {
      in += static_cast<double>(inputs_[k].bytes());
      out += static_cast<double>(refs_[k].size());
    }
    return out > 0 ? in / out : 0;
  }

  void inject_corrupt() override { corrupt_next_ = true; }

  Segment run(double seconds) override;

 private:
  struct Trip {
    double c_s = 0, d_s = 0;
    bool c_ok = false, d_ok = false;
  };

  void build_codec(fz::telemetry::Sink* sink) {
    fz::FzParams p;
    p.eb = kEb;
    p.telemetry = sink;
    codec_ = std::make_unique<fz::Codec>(p);
    // Warm-up: two round trips per field fill the scratch pool and fault in
    // every page; the first stream of each field becomes its reference.
    for (int pass = 0; pass < 2; ++pass)
      for (size_t k = 0; k < inputs_.size(); ++k) {
        const Trip t = round_trip(k, false);
        pending_failed_ += !t.c_ok + !t.d_ok;
      }
  }

  Trip round_trip(size_t k, bool corrupt) {
    const Input& in = inputs_[k];
    Trip t;
    fz::Status st;
    {
      Tracer::Span span("Codec::try_compress");
      const double t0 = now_s();
      st = in.is_f64 ? codec_->try_compress(std::span<const f64>(in.v64), in.dims, comp_)
                     : codec_->try_compress(fz::FloatSpan(in.v32), in.dims, comp_);
      t.c_s = now_s() - t0;
    }
    {
      Tracer::Span span("verify");
      if (refs_[k].empty() && st.ok()) refs_[k] = comp_.bytes;
      t.c_ok = st.ok() && comp_.bytes == refs_[k];
    }
    if (corrupt && comp_.bytes.size() > 200) comp_.bytes[comp_.bytes.size() / 2] ^= 0x5a;
    Dims dims;
    {
      Tracer::Span span("Codec::try_decompress_into");
      const double t0 = now_s();
      st = in.is_f64
               ? codec_->try_decompress_into(
                     comp_.bytes, std::span<f64>(out64_.data(), in.v64.size()), &dims)
               : codec_->try_decompress_into(
                     comp_.bytes, std::span<f32>(out32_.data(), in.v32.size()), &dims);
      t.d_s = now_s() - t0;
    }
    {
      Tracer::Span span("verify");
      const double eb = comp_.stats.abs_eb;
      const size_t bad =
          in.is_f64 ? bound_violations<f64>(in.v64, {out64_.data(), in.v64.size()}, eb)
                    : bound_violations<f32>(in.v32, {out32_.data(), in.v32.size()}, eb);
      t.d_ok = st.ok() && dims == in.dims && eb > 0 && bad == 0;
    }
    return t;
  }

  std::vector<FieldSpec> specs_;
  u64 seed_;
  int reps_;
  std::vector<Input> inputs_;
  std::vector<std::vector<u8>> refs_;
  std::vector<f32> out32_;
  std::vector<f64> out64_;
  fz::FzCompressed comp_;
  std::unique_ptr<fz::Codec> codec_;
  u64 pending_failed_ = 0;
  bool corrupt_next_ = false;
};

Segment CodecWorkload::run(double seconds) {
  Segment seg;
  const size_t n = inputs_.size();
  std::vector<std::vector<double>> c_us(n), d_us(n);
  std::vector<double> cycle_us;
  std::vector<std::vector<double>> window_us;  // round trips per 1 s window
  double c_bytes = 0, c_s = 0, d_bytes = 0, d_s = 0;
  const size_t misses0 = codec_->pool().stats().misses;
  seg.failed = pending_failed_;
  seg.attempted = pending_failed_;
  pending_failed_ = 0;

  // One operation is a cycle: a round trip of every field in turn.  Fields
  // differ in speed, so one round trip's latency is a mixture over fields;
  // a cycle's is not.
  const double start = now_s();
  while (now_s() < start + seconds) {
    Tracer::Span cycle("cycle", Tracer::get().next_request());
    double cycle_s = 0;
    for (size_t k = 0; k < n; ++k) {
      Trip t;
      {
        Tracer::Span span("round_trip");
        t = round_trip(k, corrupt_next_);
      }
      corrupt_next_ = false;
      seg.attempted += 2;
      seg.failed += !t.c_ok + !t.d_ok;
      const double b = static_cast<double>(inputs_[k].bytes());
      c_bytes += b;
      d_bytes += b;
      c_s += t.c_s;
      d_s += t.d_s;
      cycle_s += t.c_s + t.d_s;
      c_us[k].push_back(t.c_s * 1e6);
      d_us[k].push_back(t.d_s * 1e6);
      const size_t w = static_cast<size_t>(now_s() - start);
      if (window_us.size() <= w) window_us.resize(w + 1);
      window_us[w].push_back((t.c_s + t.d_s) * 1e6);
    }
    cycle_us.push_back(cycle_s * 1e6);
  }
  seg.ops = cycle_us.size();
  seg.busy_s = c_s + d_s;
  seg.bytes = c_bytes + d_bytes;
  seg.p50_us = median(cycle_us);
  seg.p90_us = quantile(cycle_us, 0.9);
  seg.p99_us = quantile(cycle_us, 0.99);
  seg.pool_misses_per_call =
      seg.ops == 0 ? 0
                   : static_cast<double>(codec_->pool().stats().misses - misses0) /
                         static_cast<double>(2 * n * seg.ops);
  std::vector<double> all_c, all_d;
  for (size_t k = 0; k < n; ++k) {
    all_c.insert(all_c.end(), c_us[k].begin(), c_us[k].end());
    all_d.insert(all_d.end(), d_us[k].begin(), d_us[k].end());
  }

  seg.named = {
      {"compress_gbps", c_s > 0 ? c_bytes / c_s / 1e9 : 0, "GB/s"},
      {"decompress_gbps", d_s > 0 ? d_bytes / d_s / 1e9 : 0, "GB/s"},
      {"compress_p50_us", quantile(all_c, 0.5), "us"},
      {"compress_p90_us", quantile(all_c, 0.9), "us"},
      {"decompress_p50_us", quantile(all_d, 0.5), "us"},
      {"decompress_p90_us", quantile(all_d, 0.9), "us"},
      {"ratio", ratio(), "x"},
  };
  seg.lines.push_back("field            dims            MB    ratio  calls  c_p50_us  d_p50_us  c_GB/s  d_GB/s");
  for (size_t k = 0; k < n; ++k) {
    const Input& in = inputs_[k];
    const double mb = static_cast<double>(in.bytes()) / 1e6;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-16s %-14s %7.3f %7.2f %6zu %9.1f %9.1f %7.2f %7.2f",
                  in.label.c_str(), dims_str(in.dims).c_str(), mb,
                  refs_[k].empty() ? 0.0
                                   : static_cast<double>(in.bytes()) /
                                         static_cast<double>(refs_[k].size()),
                  c_us[k].size(), median(c_us[k]), median(d_us[k]),
                  mb * 1e-3 / (median(c_us[k]) * 1e-6 + 1e-30),
                  mb * 1e-3 / (median(d_us[k]) * 1e-6 + 1e-30));
    seg.lines.push_back(buf);
  }
  seg.lines.push_back(fmt("%.0f cycles of %.0f fields each, cycle p50 %.1f us", static_cast<double>(seg.ops),
                          static_cast<double>(n), seg.p50_us));
  std::string w = "round-trip p50 per 1 s window (us):";
  for (const auto& win : window_us) w += fmt(" %.1f", median(win));
  seg.lines.push_back(w);
  seg.lines.push_back(histogram_line("compress", all_c));
  seg.lines.push_back(histogram_line("decompress", all_d));
  return seg;
}

// ---- reader-slices -------------------------------------------------------------

/// One thread reads N-D slices of a v2 chunked container through fz::Reader
/// with a cache budget of a quarter of the decoded field.  Reads mix
/// skewed random slices (a hot region that fits the cache) with forward
/// sweeps the prefetcher can follow.  Every slice is compared byte for
/// byte with the same region of one reference full decode.
class ReaderWorkload final : public Workload {
 public:
  ReaderWorkload(Scale scale, u64 seed) : seed_(seed) {
    switch (scale) {
      case Scale::Full: dims_ = Dims{512, 256, 256}; chunks_ = 64; break;
      case Scale::Probe: dims_ = Dims{128, 128, 64}; chunks_ = 16; break;
      case Scale::Tiny: dims_ = Dims{64, 32, 32}; chunks_ = 8; break;
    }
  }

  int setup_reps() const override { return 3; }

  void setup() override {
    reader_.reset();
    container_.clear();
    ref_.clear();
    {
      // Hurricane: in five-seed trials its slice latencies varied about
      // half as much across seeds as Nyx's did.
      const fz::Field f = fz::generate_field(Dataset::Hurricane, dims_, input_seed(seed_, 0));
      fz::ChunkedParams cp;
      cp.base.eb = kEb;
      cp.num_chunks = chunks_;
      fz::ChunkedCompressed c = fz::fz_compress_chunked(f.values(), dims_, cp);
      container_ = std::move(c.bytes);
      ref_ = fz::fz_decompress_chunked(container_).data;
      pending_failed_ += bound_violations<f32>(f.data, ref_, c.stats.abs_eb) != 0;
    }
    build_reader(nullptr);
  }

  void attach_sink(fz::telemetry::Sink* sink) override {
    reader_.reset();
    build_reader(sink);
  }

  double ratio() const override {
    return static_cast<double>(ref_.size() * sizeof(f32)) /
           static_cast<double>(container_.size());
  }

  void inject_corrupt() override { corrupt_next_ = true; }

  Segment run(double seconds) override;

 private:
  void build_reader(fz::telemetry::Sink* sink) {
    fz::ReaderOptions o;
    o.cache_bytes = ref_.size() * sizeof(f32) / 4;
    o.telemetry = sink;
    reader_ = std::make_unique<fz::Reader>(container_, o);
    sink_ = sink;
    if (ops_.empty()) make_ops();
    // Warm-up: the first reads of the sequence, checked but not timed;
    // enough to fill the cache several times over.
    for (size_t i = 0; i < 128; ++i) pending_failed_ += !read_one(next_op()).ok;
  }

  /// The read sequence, fixed by the seed.
  void make_ops() {
    fz::Rng rng(input_seed(seed_, 99));
    const size_t X = dims_.x, Y = dims_.y, Z = dims_.z;
    const size_t P = reader_->info().chunks.front().dims.z;  // planes per chunk
    const size_t nchunks = reader_->chunk_count();
    const size_t hot_chunks = std::max<size_t>(1, nchunks / 8);
    const size_t hot_z0 = rng.below(nchunks - hot_chunks + 1) * P;
    const size_t hot_nz = hot_chunks * P;
    const size_t sweep_len = std::min<size_t>(8, nchunks);
    while (ops_.size() < 20000) {
      if (rng.uniform() < kSweepEpisode) {
        const size_t c0 = rng.below(nchunks - sweep_len + 1);
        for (size_t j = 0; j < sweep_len; ++j)
          ops_.push_back({X / 4, Y / 4, (c0 + j) * P, X / 2, Y / 2, P});
        continue;
      }
      fz::Slice s;
      s.nx = X / 8 + rng.below(3 * X / 8);
      s.ny = Y / 8 + rng.below(3 * Y / 8);
      s.nz = 1 + rng.below(P);
      s.x = rng.below(X - s.nx + 1);
      s.y = rng.below(Y - s.ny + 1);
      s.z = rng.uniform() < kHotRead ? hot_z0 + rng.below(hot_nz - s.nz + 1)
                                     : rng.below(Z - s.nz + 1);
      ops_.push_back(s);
    }
    size_t most = 0;
    for (const fz::Slice& s : ops_) most = std::max(most, s.count());
    out_.assign(most, 0.0f);
  }

  const fz::Slice& next_op() { return ops_[next_++ % ops_.size()]; }

  struct ReadResult {
    double s = 0;
    bool ok = false;
    bool hit = false;  ///< every chunk came from the cache
  };

  ReadResult read_one(const fz::Slice& s) {
    ReadResult r;
    const u64 misses0 = reader_->stats().misses;
    const std::span<f32> out(out_.data(), s.count());
    bool threw = false;
    {
      Tracer::Span span("Reader::read");
      const double t0 = now_s();
      try {
        reader_->read(s, out);
      } catch (...) {
        threw = true;
      }
      r.s = now_s() - t0;
    }
    r.hit = reader_->stats().misses == misses0;
    Tracer::Span span("verify");
    if (corrupt_next_) {
      out[0] = -out[0] - 1.0f;
      corrupt_next_ = false;
    }
    r.ok = !threw;
    const size_t X = dims_.x, Y = dims_.y;
    for (size_t z = 0; z < s.nz && r.ok; ++z)
      for (size_t y = 0; y < s.ny && r.ok; ++y)
        r.ok = std::memcmp(&out[(z * s.ny + y) * s.nx],
                           &ref_[s.x + X * ((s.y + y) + Y * (s.z + z))],
                           s.nx * sizeof(f32)) == 0;
    return r;
  }

  /// Median time of a direct chunk decode (one worker, as the Reader's
  /// pool decodes), outside the cache.
  double chunk_decode_us() {
    fz::FzParams p;
    p.fused_workers = 1;
    fz::Codec codec(p);
    const fz::ContainerInfo& info = reader_->info();
    std::vector<double> us;
    std::vector<f32> out;
    for (size_t rep = 0; rep < 3; ++rep)
      for (size_t i = 0; i < std::min<size_t>(8, info.chunks.size()); ++i) {
        const fz::ChunkEntry& e = info.chunks[i];
        out.resize(e.dims.count());
        Tracer::Span span("Codec::try_decompress_into(chunk)");
        const double t0 = now_s();
        const fz::Status st = codec.try_decompress_into(
            fz::ByteSpan(container_.data() + e.offset, e.bytes), out);
        if (rep > 0) us.push_back((now_s() - t0) * 1e6);
        pending_failed_ += !st.ok();
      }
    return median(us);
  }

  /// Share of episodes that are forward sweeps, and of random reads that
  /// land in the hot region.  Chosen so roughly a quarter of reads hit
  /// the cache: the median read then sits well inside the miss mode.
  static constexpr double kSweepEpisode = 0.02;
  static constexpr double kHotRead = 0.15;

  u64 seed_;
  Dims dims_;
  size_t chunks_ = 0;
  std::vector<u8> container_;
  std::vector<f32> ref_;
  std::vector<fz::Slice> ops_;
  size_t next_ = 0;
  std::vector<f32> out_;
  std::unique_ptr<fz::Reader> reader_;
  fz::telemetry::Sink* sink_ = nullptr;
  u64 pending_failed_ = 0;
  bool corrupt_next_ = false;
};

Segment ReaderWorkload::run(double seconds) {
  Segment seg;
  seg.failed = seg.attempted = pending_failed_;
  pending_failed_ = 0;
  const fz::ReaderStats st0 = reader_->stats();
  const u64 miss0 = sink_ ? sink_->counter(fz::telemetry::Counter::PoolMiss) : 0;
  std::vector<double> all, hit, miss;
  double bytes = 0;
  const double start = now_s();
  for (double now = start; now < start + seconds; now = now_s()) {
    const fz::Slice& s = next_op();
    ReadResult r;
    {
      Tracer::Span span("slice", Tracer::get().next_request());
      r = read_one(s);
    }
    ++seg.attempted;
    seg.failed += !r.ok;
    seg.busy_s += r.s;
    bytes += static_cast<double>(s.count() * sizeof(f32));
    all.push_back(r.s * 1e6);
    (r.hit ? hit : miss).push_back(r.s * 1e6);
  }
  const fz::ReaderStats st1 = reader_->stats();
  seg.ops = all.size();
  seg.bytes = bytes;
  seg.p50_us = median(all);
  seg.p90_us = quantile(all, 0.9);
  seg.p99_us = quantile(all, 0.99);
  if (sink_ != nullptr && seg.ops > 0)
    seg.pool_misses_per_call =
        static_cast<double>(sink_->counter(fz::telemetry::Counter::PoolMiss) - miss0) /
        static_cast<double>(seg.ops);

  const double hits = static_cast<double>(st1.hits - st0.hits);
  const double misses = static_cast<double>(st1.misses - st0.misses);
  const double issued = static_cast<double>(st1.prefetch_issued - st0.prefetch_issued);
  const double pf_hits = static_cast<double>(st1.prefetch_hits - st0.prefetch_hits);
  const double reads = std::max<double>(1, static_cast<double>(seg.ops));
  seg.layer = {
      {"reader.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"},
      {"reader.prefetch_useful", issued > 0 ? pf_hits / issued : 0, "ratio"},
      {"reader.evictions_per_read",
       static_cast<double>(st1.evictions - st0.evictions) / reads, "count"},
      {"reader.hit_read_p50_us", median(hit), "us"},
      {"reader.miss_read_p50_us", median(miss), "us"},
      {"reader.chunk_decode_us", chunk_decode_us(), "us"},
  };
  seg.failed += pending_failed_;
  seg.attempted += pending_failed_;
  pending_failed_ = 0;
  seg.named = {
      {"slice_p50_us", seg.p50_us, "us"},
      {"slice_p90_us", seg.p90_us, "us"},
      {"slices_per_s", seg.ops_per_s(), "1/s"},
  };
  seg.lines.push_back(fmt("container %.1f MB decoded, %.0f chunks, cache budget %.1f MB",
                          static_cast<double>(ref_.size() * 4) / 1e6,
                          static_cast<double>(reader_->chunk_count()),
                          static_cast<double>(ref_.size()) / 1e6));
  seg.lines.push_back(fmt("reads %.0f: chunk hit ratio %.3f, reads served from cache %.0f "
                          "(p50 %.1f us), reads that decoded %.0f (p50 %.1f us)",
                          static_cast<double>(seg.ops), hits + misses > 0 ? hits / (hits + misses) : 0,
                          static_cast<double>(hit.size()), median(hit),
                          static_cast<double>(miss.size()), median(miss)));
  seg.lines.push_back(histogram_line("slice", all));
  return seg;
}

// ---- service-mixed -------------------------------------------------------------

/// nproc client threads, each a closed loop, submit compress and decompress
/// jobs over 25 KiB - 1 MiB fields to one in-process fz::Service with fewer
/// workers than clients, so jobs queue.  A compress job's stream must equal
/// the direct Codec's stream byte for byte; a decompress job's samples must
/// equal the direct Codec's reconstruction (itself checked against the
/// bound at setup).
class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(Scale scale, u64 seed) : seed_(seed) {
    specs_ = {
        {Dataset::HACC, Dims{6400}},                // 25 KiB
        {Dataset::CESM, Dims{128, 100}},            // 50 KiB
        {Dataset::Hurricane, Dims{32, 32, 25}},     // 100 KiB
        {Dataset::Nyx, Dims{40, 40, 32}},           // 200 KiB
        {Dataset::QMCPACK, Dims{64, 40, 40}},       // 400 KiB
        {Dataset::RTM, Dims{64, 64, 44}},           // 704 KiB
        {Dataset::Nyx, Dims{64, 64, 64}},           // 1 MiB
        {Dataset::CESM, Dims{512, 512}},            // 1 MiB
    };
    if (scale == Scale::Tiny) {
      specs_.resize(3);
    } else {
      // Two fields of each size, each with its own generator seed, so the
      // ratio of one run does not hinge on one field per size.
      const std::vector<FieldSpec> sizes = specs_;
      specs_.insert(specs_.end(), sizes.begin(), sizes.end());
    }
    clients_ = std::max<size_t>(2, nproc());
    workers_ = std::max<size_t>(1, nproc() / 2);
  }

  int setup_reps() const override { return 7; }

  void setup() override {
    svc_.reset();
    templates_.clear();
    fz::FzParams p;
    p.eb = kEb;
    p.fused_workers = 1;  // as the service's worker codecs run
    fz::Codec direct(p);
    for (size_t k = 0; k < specs_.size(); ++k) {
      const Input in = make_input(specs_[k], input_seed(seed_, k));
      Template t;
      t.label = in.label;
      t.field_bytes = in.bytes();
      t.creq.kind = fz::JobKind::Compress;
      t.creq.dims = in.dims;
      t.creq.eb = kEb;
      t.creq.payload.resize(in.bytes());
      std::memcpy(t.creq.payload.data(), in.v32.data(), in.bytes());
      fz::FzCompressed c;
      std::vector<f32> out(in.v32.size());
      std::vector<double> c_us, d_us;
      for (int rep = 0; rep < 5; ++rep) {
        double t0 = now_s();
        const fz::Status cs = direct.try_compress(fz::FloatSpan(in.v32), in.dims, c);
        c_us.push_back((now_s() - t0) * 1e6);
        t0 = now_s();
        const fz::Status ds = direct.try_decompress_into(c.bytes, out);
        d_us.push_back((now_s() - t0) * 1e6);
        pending_failed_ += !cs.ok() || !ds.ok();
      }
      pending_failed_ += bound_violations<f32>(in.v32, out, c.stats.abs_eb) != 0;
      t.direct_us[0] = median(c_us);
      t.direct_us[1] = median(d_us);
      t.ref_stream = c.bytes;
      t.ref_samples.resize(in.bytes());
      std::memcpy(t.ref_samples.data(), out.data(), in.bytes());
      t.dreq.kind = fz::JobKind::Decompress;
      t.dreq.payload = c.bytes;
      templates_.push_back(std::move(t));
    }
    build_service(nullptr);
  }

  void attach_sink(fz::telemetry::Sink* sink) override {
    svc_.reset();
    build_service(sink);
  }

  double ratio() const override {
    double in = 0, out = 0;
    for (const Template& t : templates_) {
      in += static_cast<double>(t.field_bytes);
      out += static_cast<double>(t.ref_stream.size());
    }
    return out > 0 ? in / out : 0;
  }

  void inject_corrupt() override { corrupt_next_ = true; }

  Segment run(double seconds) override;

 private:
  struct Template {
    std::string label;
    size_t field_bytes = 0;
    fz::Request creq, dreq;
    std::vector<u8> ref_stream, ref_samples;
    double direct_us[2] = {0, 0};  ///< direct Codec time: compress, decompress
  };

  struct Job {
    double us = 0;
    double overhead_us = 0;
    double bytes = 0;
    bool ok = false;
  };

  void build_service(fz::telemetry::Sink* sink) {
    fz::Service::Options o;
    o.workers = workers_;
    o.telemetry = sink;
    o.codec.eb = kEb;
    svc_ = std::make_unique<fz::Service>(o);
    sink_ = sink;
    fz::Response resp;
    for (int pass = 0; pass < 2; ++pass)
      for (size_t t = 0; t < templates_.size(); ++t)
        for (int kind = 0; kind < 2; ++kind)
          pending_failed_ += !submit(t, kind, resp).ok;
  }

  Job submit(size_t t, int kind, fz::Response& resp) {
    const Template& tp = templates_[t];
    Job j;
    fz::Status st;
    {
      Tracer::Span span("Service::submit");
      const double t0 = now_s();
      st = svc_->submit(kind == 0 ? tp.creq : tp.dreq, resp);
      j.us = (now_s() - t0) * 1e6;
    }
    Tracer::Span span("verify");
    const std::vector<u8>& want = kind == 0 ? tp.ref_stream : tp.ref_samples;
    j.ok = st.ok() && resp.payload == want;
    j.overhead_us = j.us - tp.direct_us[kind];
    j.bytes = static_cast<double>(tp.field_bytes);
    return j;
  }

  u64 seed_;
  std::vector<FieldSpec> specs_;
  size_t clients_ = 2, workers_ = 1;
  std::vector<Template> templates_;
  std::unique_ptr<fz::Service> svc_;
  fz::telemetry::Sink* sink_ = nullptr;
  u64 run_index_ = 0;
  u64 pending_failed_ = 0;
  bool corrupt_next_ = false;
};

Segment ServiceWorkload::run(double seconds) {
  Segment seg;
  seg.failed = seg.attempted = pending_failed_;
  pending_failed_ = 0;
  if (corrupt_next_) {
    // Truncate one template's stream: its decompress jobs must now fail.
    templates_.front().dreq.payload.resize(templates_.front().dreq.payload.size() / 2);
    corrupt_next_ = false;
  }
  const fz::Service::Counters c0 = svc_->counters();
  const u64 miss0 = sink_ ? sink_->counter(fz::telemetry::Counter::PoolMiss) : 0;
  std::vector<std::vector<Job>> jobs(clients_);
  const u64 run = run_index_++;
  const double start = now_s();
  const double deadline = start + seconds;
  std::vector<std::thread> crew;
  for (size_t c = 0; c < clients_; ++c)
    crew.emplace_back([&, c] {
      fz::Rng rng(input_seed(seed_, 1000 + 64 * run + c));
      fz::Response resp;
      while (now_s() < deadline) {
        const size_t t = rng.below(templates_.size());
        const int kind = static_cast<int>(rng.below(2));
        Tracer::Span span("job", Tracer::get().next_request());
        jobs[c].push_back(submit(t, kind, resp));
      }
    });
  for (auto& th : crew) th.join();
  seg.busy_s = now_s() - start;
  const fz::Service::Counters c1 = svc_->counters();

  std::vector<double> us, overhead;
  for (const auto& list : jobs)
    for (const Job& j : list) {
      ++seg.attempted;
      seg.failed += !j.ok;
      seg.bytes += j.bytes;
      us.push_back(j.us);
      overhead.push_back(j.overhead_us);
    }
  seg.ops = us.size();
  seg.p50_us = median(us);
  seg.p90_us = quantile(us, 0.9);
  seg.p99_us = quantile(us, 0.99);
  if (sink_ != nullptr && seg.ops > 0)
    seg.pool_misses_per_call =
        static_cast<double>(sink_->counter(fz::telemetry::Counter::PoolMiss) - miss0) /
        static_cast<double>(seg.ops);
  const double completed = static_cast<double>(c1.completed - c0.completed);
  const double rejected = static_cast<double>(c1.rejected_queue_full - c0.rejected_queue_full);
  const double accepted = static_cast<double>(c1.accepted - c0.accepted);
  seg.layer = {
      {"service.overhead_us", median(overhead), "us"},
      {"service.batched_frac",
       completed > 0 ? static_cast<double>(c1.batched_jobs - c0.batched_jobs) / completed : 0,
       "ratio"},
      {"service.peak_queue_depth", static_cast<double>(c1.peak_queue_depth), "count"},
      {"service.rejected_frac",
       accepted + rejected > 0 ? rejected / (accepted + rejected) : 0, "ratio"},
  };
  seg.named = {
      {"jobs_per_s", seg.ops_per_s(), "1/s"},
      {"job_p50_us", seg.p50_us, "us"},
      {"job_p90_us", seg.p90_us, "us"},
      {"ratio", ratio(), "x"},
  };
  seg.lines.push_back(fmt("%.0f clients, %.0f service workers, %.0f job templates",
                          static_cast<double>(clients_), static_cast<double>(workers_),
                          static_cast<double>(templates_.size())));
  seg.lines.push_back(histogram_line("job", us));
  return seg;
}

std::vector<FieldSpec> bulk_specs(Scale scale) {
  if (scale == Scale::Tiny)
    return {{Dataset::Nyx, Dims{32, 32, 16}},
            {Dataset::RTM, Dims{32, 32, 16}},
            {Dataset::HACC, Dims{16384}},
            {Dataset::Hurricane, Dims{16, 16, 16}, true}};
  // Each field is 128 MiB: four times this machine class's 32 MiB LLC.
  return {{Dataset::Nyx, Dims{512, 256, 256}},
          {Dataset::RTM, Dims{448, 448, 168}},
          {Dataset::HACC, Dims{size_t{1} << 25}},
          {Dataset::Hurricane, Dims{256, 256, 256}, true}};
}

std::vector<FieldSpec> small_specs() {
  // ~64 KiB each: 16384 f32 values, and 8192 f64 values.  Four fields of
  // each kind (each with its own generator seed), so the ratio of one run
  // does not hinge on one small field per generator.
  const std::vector<FieldSpec> kinds = {{Dataset::HACC, Dims{16384}},
                                        {Dataset::CESM, Dims{128, 128}},
                                        {Dataset::Hurricane, Dims{32, 32, 16}},
                                        {Dataset::Nyx, Dims{32, 32, 16}},
                                        {Dataset::QMCPACK, Dims{32, 32, 16}},
                                        {Dataset::RTM, Dims{32, 32, 16}},
                                        {Dataset::Nyx, Dims{32, 16, 16}, true}};
  std::vector<FieldSpec> specs;
  for (int copy = 0; copy < 4; ++copy) specs.insert(specs.end(), kinds.begin(), kinds.end());
  return specs;
}

}  // namespace

fz::Field bulk_nyx_field(Scale scale, u64 seed) {
  const FieldSpec s = bulk_specs(scale).front();
  return fz::generate_field(s.ds, s.dims, input_seed(seed, 0));
}

std::unique_ptr<Workload> make_workload(const std::string& name, Scale scale,
                                        u64 seed) {
  if (name == "bulk-large")
    return std::make_unique<CodecWorkload>(bulk_specs(scale), seed, 3);
  if (name == "small-mixed")
    return std::make_unique<CodecWorkload>(small_specs(), seed, 9);
  if (name == "reader-slices") return std::make_unique<ReaderWorkload>(scale, seed);
  if (name == "service-mixed") return std::make_unique<ServiceWorkload>(scale, seed);
  return nullptr;
}

}  // namespace fzbench
