#include "layers.hpp"

#include <atomic>
#include <cstring>
#include <thread>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "core/bitshuffle.hpp"
#include "core/codec.hpp"
#include "core/costs.hpp"
#include "core/encoder.hpp"
#include "core/format.hpp"
#include "core/kernels_decode.hpp"
#include "core/kernels_simd.hpp"
#include "core/lorenzo.hpp"
#include "core/quantizer.hpp"
#include "substrate/scan.hpp"
#include "tracer.hpp"

namespace fzbench {

namespace {

/// Seconds of `reps` timed calls of fn(), after one untimed call; `reset`
/// runs untimed before each call.
template <typename Fn, typename Reset>
std::vector<double> time_calls(const char* span_name, int reps, Fn&& fn, Reset&& reset) {
  std::vector<double> s;
  for (int r = 0; r <= reps; ++r) {
    reset();
    Tracer::Span span(span_name);
    const double t0 = now_s();
    fn();
    if (r > 0) s.push_back(now_s() - t0);
  }
  return s;
}

template <typename Fn, typename Reset>
double time_median(const char* span_name, int reps, Fn&& fn, Reset&& reset) {
  return median(time_calls(span_name, reps, fn, reset));
}

template <typename Fn>
double time_median(const char* span_name, int reps, Fn&& fn) {
  return time_median(span_name, reps, fn, [] {});
}

template <typename Fn>
double time_min(const char* span_name, int reps, Fn&& fn) {
  const std::vector<double> s = time_calls(span_name, reps, fn, [] {});
  return *std::min_element(s.begin(), s.end());
}

}  // namespace

CopyBandwidth measure_copy_bandwidth(Scale scale) {
  // 128 MiB arrays: four times a 32 MiB LLC.
  const size_t bytes = scale == Scale::Tiny ? (size_t{4} << 20) : (size_t{128} << 20);
  std::vector<u8> src(bytes, 1), dst(bytes, 0);
  const size_t threads = nproc();
  CopyBandwidth bw;
  // Best of 5, not the median: the roofline denominator is the bandwidth
  // the machine can achieve, and interference only ever lowers a sample.
  const double t1 = time_min("memory.copy.1t", 5,
                             [&] { std::memcpy(dst.data(), src.data(), bytes); });
  const double tn = time_min("memory.copy.nt", 5, [&] {
    std::vector<std::thread> crew;
    for (size_t t = 0; t < threads; ++t)
      crew.emplace_back([&, t] {
        const size_t b = bytes * t / threads, e = bytes * (t + 1) / threads;
        std::memcpy(dst.data() + b, src.data() + b, e - b);
      });
    for (auto& th : crew) th.join();
  });
  bw.gbps_1t = 2.0 * static_cast<double>(bytes) / t1 / 1e9;
  bw.gbps_nt = 2.0 * static_cast<double>(bytes) / tn / 1e9;
  return bw;
}

void probe_dispatch(Scale scale, Report& out) {
  const size_t calls = scale == Scale::Tiny ? 2000 : 20000;
  const size_t width = static_cast<size_t>(fz::max_threads());
  std::vector<double> us;
  us.reserve(calls);
  for (size_t i = 0; i < calls; ++i) {
    const double t0 = now_s();
    fz::parallel_for(0, width, [](size_t) {});
    us.push_back((now_s() - t0) * 1e6);
  }
  out.add("common.parallel.dispatch_p50_us", median(us), "us");
  out.add("common.parallel.dispatch_p90_us", quantile(us, 0.9), "us");
}

void probe_handoff(Scale scale, Report& out) {
  const size_t tasks = scale == Scale::Tiny ? 500 : 5000;
  fz::ThreadPool pool(nproc());
  std::vector<double> us;
  us.reserve(tasks);
  for (size_t i = 0; i < tasks; ++i) {
    std::atomic<u64> started{0};
    const u64 t0 = now_ns();
    pool.submit([&started](size_t) { started.store(now_ns(), std::memory_order_release); });
    u64 t1 = 0;
    while ((t1 = started.load(std::memory_order_acquire)) == 0) std::this_thread::yield();
    us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    pool.wait_idle();
  }
  out.add("common.thread_pool.handoff_p50_us", median(us), "us");
}

void probe_kernels(Scale scale, u64 seed, double copy_gbps_nt, Report& out) {
  using fz::i64;
  using fz::u32;
  const fz::Field field = bulk_nyx_field(scale, seed);
  const fz::Dims dims = field.dims;
  const size_t n = dims.count();
  const int reps = 5;

  // Reference stream and reconstruction from the Codec at default workers.
  fz::FzCompressed comp;
  std::vector<f32> want(n), got(n);
  {
    fz::FzParams p;
    p.eb = fz::ErrorBound::relative(1e-3);
    fz::Codec codec(p);
    const bool ok = codec.try_compress(field.values(), dims, comp).ok() &&
                    codec.try_decompress_into(comp.bytes, want).ok();
    ++out.attempted;
    out.failed += !ok;
  }
  const fz::FzStats st = comp.stats;
  fz::StreamHeader h{};
  std::memcpy(&h, comp.bytes.data(), sizeof h);
  const size_t flag_off = sizeof h;
  const size_t block_off = flag_off + h.bit_flag_bytes;

  const fz::SimdLevel level = fz::resolve_simd();
  const fz::FusedParallelPlan plan = fz::fused_parallel_plan(dims, 0);
  const size_t words = fz::round_up(n, fz::kCodesPerTile) / 2;
  const size_t blocks = words / fz::kBlockWords;
  std::vector<u32> shuffled(words), flags32(blocks), offsets(blocks),
      scan(2 * fz::scan_chunk_count(blocks)), compact(words);
  std::vector<u8> byte_flags(blocks), bit_flags((blocks + 7) / 8);
  std::vector<i64> scratch(plan.scratch_elems), deltas(n), pq(n);

  auto report = [&](const char* stage, double bytes, double seconds, bool ok) {
    const double gbps = bytes / seconds / 1e9;
    out.add(std::string("core.kernel.") + stage + ".gbps", gbps, "GB/s");
    out.add(std::string("core.kernel.") + stage + ".bw_frac", gbps / copy_gbps_nt, "ratio");
    ++out.attempted;
    out.failed += !ok;
  };

  // Compress: fused quantize + Lorenzo + encode + bitshuffle + mark.
  double t = time_median("kernel.fused_quant_shuffle_mark_parallel", reps, [&] {
    fz::fused_quant_shuffle_mark_parallel(field.values(), dims, h.abs_eb, false, shuffled,
                                          byte_flags, bit_flags, scratch, plan, level);
  });
  report("fused_quant_shuffle_mark_parallel",
         static_cast<double>(fz::fz_fused_parallel_cost(st, dims, plan.strips).global_bytes()),
         t, std::memcmp(bit_flags.data(), comp.bytes.data() + flag_off, bit_flags.size()) == 0);

  // Compress: block encode (prefix-sum offsets + compaction).
  size_t nonzero = 0;
  t = time_median("kernel.block_encode", reps, [&] {
    nonzero = fz::compact_blocks(shuffled, byte_flags, flags32, offsets, scan, compact);
  });
  const auto enc_costs = fz::fz_compression_costs(st, fz::FzParams{});
  report("block_encode", static_cast<double>(enc_costs.back().global_bytes()), t,
         nonzero * fz::kBlockWords == h.block_words &&
             std::memcmp(compact.data(), comp.bytes.data() + block_off,
                         h.block_words * sizeof(u32)) == 0);

  // Decompress: fused scatter + inverse bitshuffle + decode.
  std::vector<u32> payload(h.block_words);
  std::memcpy(payload.data(), comp.bytes.data() + block_off, h.block_words * sizeof(u32));
  fz::decode_block_offsets(fz::ByteSpan(comp.bytes.data() + flag_off, h.bit_flag_bytes),
                           payload, flags32, offsets, scan);
  t = time_median("kernel.fused_scatter_decode_parallel", reps, [&] {
    fz::fused_scatter_decode_parallel(flags32, offsets, payload, deltas, plan, level);
  });
  report("fused_scatter_decode_parallel",
         static_cast<double>(fz::fz_fused_decode_cost(st).global_bytes()), t, true);

  // Decompress: inverse Lorenzo (in place, as the codec runs it).  costs.*
  // prices no host sheet for it: the bytes are its i64 array read + write.
  deltas[0] += h.anchor;
  t = time_median(
      "kernel.lorenzo_inverse", reps, [&] { fz::lorenzo_inverse(pq, dims, pq, 0); },
      [&] { std::copy(deltas.begin(), deltas.end(), pq.begin()); });
  report("lorenzo_inverse", 16.0 * static_cast<double>(n), t, true);

  // Decompress: dequantize into f32 (i64 read, f32 written).
  t = time_median("kernel.dequantize", reps, [&] { fz::dequantize(pq, h.abs_eb, got); });
  report("dequantize", 12.0 * static_cast<double>(n), t,
         std::memcmp(got.data(), want.data(), n * sizeof(f32)) == 0);

  // Scaling: the codec at nproc workers over the same codec at one worker
  // (the plain single-thread baseline), compress + decompress.
  auto codec_gbps = [&](size_t workers) {
    fz::FzParams p;
    p.eb = fz::ErrorBound::relative(1e-3);
    p.fused_workers = workers;
    fz::Codec codec(p);
    fz::FzCompressed c;
    bool ok = true;
    const double tc = time_median("scaling.compress", 3, [&] {
      ok &= codec.try_compress(field.values(), dims, c).ok();
    });
    const double td = time_median("scaling.decompress", 3, [&] {
      ok &= codec.try_decompress_into(c.bytes, got).ok();
    });
    ++out.attempted;
    out.failed += !(ok && c.bytes == comp.bytes &&
                     std::memcmp(got.data(), want.data(), n * sizeof(f32)) == 0);
    return 2.0 * static_cast<double>(field.bytes()) / (tc + td) / 1e9;
  };
  const double g1 = codec_gbps(1);
  const double gn = codec_gbps(nproc());
  out.add("core.codec.gbps_1w", g1, "GB/s");
  out.add("core.codec.gbps_nw", gn, "GB/s");
  out.add("core.codec.scaling_eff", gn / (static_cast<double>(nproc()) * g1), "ratio");
}

}  // namespace fzbench
