// fzbench: the repository benchmark.  One named workload per run.
//
//   fzbench --workload NAME --seed N --seconds S --trace 0|1
//           [--out-dir DIR] [--tiny] [--inject-corrupt]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// runs the same workload with spans recorded around every library call,
// probes each layer, and reports the per-layer metrics.  Human-readable
// detail goes to stdout first; the last stdout line is the JSON result.
// The exit code is 1 when any output failed its correctness check, 2 on
// bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/simd.hpp"
#include "layers.hpp"
#include "telemetry/telemetry.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

#ifndef FZBENCH_BUILD_TYPE
#define FZBENCH_BUILD_TYPE "unknown"
#endif

namespace fzbench {
namespace {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool inject_corrupt = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fzbench: %s\nusage: fzbench --workload {bulk-large|small-mixed|"
               "reader-slices|service-mixed} --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--tiny] [--inject-corrupt]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--out-dir") {
      o.out_dir = value();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--inject-corrupt") {
      o.inject_corrupt = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!is_workload(o.workload)) usage("unknown or missing --workload");
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds must be in (0, 600]");
  return o;
}

/// Last-level cache of cpu0 as sysfs reports it (sysconf's figure can be
/// the sum over cache instances), else sysconf's.
double llc_bytes() {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (f >> s && !s.empty()) {
    const double k = std::atof(s.c_str());
    return s.back() == 'M' ? k * 1048576 : s.back() == 'K' ? k * 1024 : k;
  }
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<double>(v) : 0;
}

void print_record(const Options& o, const CopyBandwidth& bw) {
  std::printf("run: workload %s seed %llu seconds %g trace %d%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
              o.tiny ? " tiny" : "");
#if defined(FZ_HAVE_OPENMP)
  const char* openmp = "on";
#else
  const char* openmp = "off";
#endif
  std::printf("hardware: nproc %zu, llc %.1f MiB, simd %s, build %s, openmp %s\n", nproc(),
              llc_bytes() / 1048576.0, fz::simd_level_name(fz::resolve_simd()),
              FZBENCH_BUILD_TYPE, openmp);
  std::printf("hardware: memory.copy_gbps.1t %.2f GB/s, memory.copy_gbps.nt %.2f GB/s\n",
              bw.gbps_1t, bw.gbps_nt);
}

void print_lines(const Segment& s) {
  for (const std::string& l : s.lines) std::printf("  %s\n", l.c_str());
}

void print_metric(const Metric& m) {
  std::printf("%-46s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// The JSON result line.  Non-finite values cannot be written as JSON
/// numbers; they are reported as 0 with a warning on stderr.
void print_json(const Report& r) {
  std::string s = "{\"correct\": ";
  s += r.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    double v = m.value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "fzbench: metric %s is not finite\n", m.name.c_str());
      v = 0;
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

int run_untraced(const Options& o, Scale scale) {
  auto w = make_workload(o.workload, scale, o.seed);
  std::vector<double> setup;
  for (int r = 0; r < w->setup_reps(); ++r) {
    const double t0 = now_s();
    w->setup();
    setup.push_back(now_s() - t0);
  }
  if (o.inject_corrupt) w->inject_corrupt();
  const Segment seg = w->run(o.seconds);
  const double rss = peak_rss_mb();
  const double setup_s = median(setup);
  const double ratio = w->ratio();
  w.reset();
  print_record(o, measure_copy_bandwidth(scale));
  print_lines(seg);

  Report r;
  r.attempted = seg.attempted;
  r.failed = seg.failed;
  r.add("gbps", seg.gbps(), "GB/s");
  r.add("ops_per_s", seg.ops_per_s(), "1/s");
  r.add("p50_us", seg.p50_us, "us");
  r.add("p90_us", seg.p90_us, "us");
  r.add("ratio", ratio, "x");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", rss, "MB");
  std::printf("end-to-end (%llu operations, %llu checks, %llu failed):\n",
              static_cast<unsigned long long>(seg.ops),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const Metric& m : seg.named) print_metric(m);
  print_metric({"error_rate",
                r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0,
                "ratio"});
  for (const Metric& m : r.metrics) print_metric(m);
  print_json(r);
  return r.failed == 0 ? 0 : 1;
}

const Metric* find(const std::vector<Metric>& v, const std::string& name) {
  for (const Metric& m : v)
    if (m.name == name) return &m;
  return nullptr;
}

int run_traced(const Options& o, Scale scale) {
  Tracer& tracer = Tracer::get();
  Report r;
  std::vector<Metric> layer;  // gathered out of order, emitted in kLayerOrder
  auto take = [&](const std::vector<Metric>& ms) {
    for (const Metric& m : ms) layer.push_back(m);
  };

  // The workload itself: plain, then with spans, then with a telemetry sink.
  Segment a, b, c;
  size_t dropped_events = 0;
  {
    auto w = make_workload(o.workload, scale, o.seed);
    w->setup();
    if (o.inject_corrupt) w->inject_corrupt();
    const double part = o.seconds / 3;
    a = w->run(part);
    tracer.enable(true);
    b = w->run(part);
    tracer.enable(false);
    fz::telemetry::Sink sink;
    w->attach_sink(&sink);
    c = w->run(part);
    dropped_events = sink.counter(fz::telemetry::Counter::EventsDropped);
    w.reset();
  }
  for (const Segment* s : {&a, &b, &c}) {
    r.attempted += s->attempted;
    r.failed += s->failed;
  }
  take(b.layer);
  layer.push_back({"common.pool.misses_per_call",
                   std::isnan(a.pool_misses_per_call) ? c.pool_misses_per_call
                                                      : a.pool_misses_per_call,
                   "count"});
  layer.push_back({"telemetry.overhead_frac", 1.0 - c.ops_per_s() / a.ops_per_s(), "ratio"});
  layer.push_back({"telemetry.dropped_events", static_cast<double>(dropped_events), "count"});
  layer.push_back({"bench.trace_overhead_frac", 1.0 - b.ops_per_s() / a.ops_per_s(), "ratio"});
  layer.push_back({"workload.p99_us", a.p99_us, "us"});

  // Layer probes, then short companion runs of the layers this workload
  // does not use, so every traced run reports every layer.
  tracer.enable(true);
  const CopyBandwidth bw = measure_copy_bandwidth(scale);
  layer.push_back({"memory.copy_gbps.1t", bw.gbps_1t, "GB/s"});
  layer.push_back({"memory.copy_gbps.nt", bw.gbps_nt, "GB/s"});
  Report probes;
  probe_dispatch(scale, probes);
  probe_handoff(scale, probes);
  probe_kernels(scale, o.seed, bw.gbps_nt, probes);
  r.attempted += probes.attempted;
  r.failed += probes.failed;
  take(probes.metrics);
  const bool codec_workload = o.workload == "bulk-large" || o.workload == "small-mixed";
  const Scale companion = scale == Scale::Tiny ? Scale::Tiny : Scale::Probe;
  const double companion_s = scale == Scale::Tiny ? 0.2 : 1.0;
  for (const char* name : {"small-mixed", "reader-slices", "service-mixed"}) {
    const bool needed = std::string(name) == "small-mixed" ? !codec_workload
                                                           : o.workload != name;
    if (!needed) continue;
    auto w = make_workload(name, companion, o.seed);
    w->setup();
    const Segment s = w->run(companion_s);
    r.attempted += s.attempted;
    r.failed += s.failed;
    take(s.layer);
  }
  tracer.enable(false);

  // Codec self time per call, from the spans around Codec calls.
  for (const Tracer::Row& row : tracer.summary()) {
    if (row.name == "Codec::try_compress")
      layer.push_back({"core.codec.compress_s", median(row.self_us) * 1e-6, "s"});
    if (row.name == "Codec::try_decompress_into")
      layer.push_back({"core.codec.decompress_s", median(row.self_us) * 1e-6, "s"});
  }

  print_record(o, bw);
  const std::string stem = o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed);
  bool wrote = tracer.write_chrome(stem + ".json", o.workload, o.seed, 200000);
  if (std::FILE* f = std::fopen((stem + ".summary.txt").c_str(), "w")) {
    tracer.write_summary(f);
    wrote &= std::fclose(f) == 0;
  } else {
    wrote = false;
  }
  std::printf("trace: %s.json (%zu spans, %zu dropped), summary %s.summary.txt%s\n",
              stem.c_str(), tracer.collect().size(), tracer.dropped(), stem.c_str(),
              wrote ? "" : " (write failed)");
  std::printf("span time by name (self = minus child spans):\n");
  tracer.write_summary(stdout);
  std::printf("workload segments (plain / spans / sink): %.1f / %.1f / %.1f ops/s\n",
              a.ops_per_s(), b.ops_per_s(), c.ops_per_s());
  print_lines(a);

  static const char* const kLayerOrder[] = {
      "common.parallel.dispatch_p50_us",
      "common.parallel.dispatch_p90_us",
      "common.thread_pool.handoff_p50_us",
      "common.pool.misses_per_call",
      "memory.copy_gbps.1t",
      "memory.copy_gbps.nt",
      "core.kernel.fused_quant_shuffle_mark_parallel.gbps",
      "core.kernel.fused_quant_shuffle_mark_parallel.bw_frac",
      "core.kernel.block_encode.gbps",
      "core.kernel.block_encode.bw_frac",
      "core.kernel.fused_scatter_decode_parallel.gbps",
      "core.kernel.fused_scatter_decode_parallel.bw_frac",
      "core.kernel.lorenzo_inverse.gbps",
      "core.kernel.lorenzo_inverse.bw_frac",
      "core.kernel.dequantize.gbps",
      "core.kernel.dequantize.bw_frac",
      "core.codec.compress_s",
      "core.codec.decompress_s",
      "core.codec.gbps_1w",
      "core.codec.gbps_nw",
      "core.codec.scaling_eff",
      "reader.hit_ratio",
      "reader.prefetch_useful",
      "reader.evictions_per_read",
      "reader.hit_read_p50_us",
      "reader.miss_read_p50_us",
      "reader.chunk_decode_us",
      "service.overhead_us",
      "service.batched_frac",
      "service.peak_queue_depth",
      "service.rejected_frac",
      "telemetry.overhead_frac",
      "telemetry.dropped_events",
      "bench.trace_overhead_frac",
      "workload.p99_us",
  };
  std::printf("per-layer (%llu checks, %llu failed):\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const char* name : kLayerOrder) {
    const Metric* m = find(layer, name);
    if (m == nullptr) {
      std::fprintf(stderr, "fzbench: per-layer metric %s was not measured\n", name);
      ++r.failed;
      continue;
    }
    r.metrics.push_back(*m);
    print_metric(*m);
  }
  print_json(r);
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fzbench

int main(int argc, char** argv) {
  const fzbench::Options o = fzbench::parse(argc, argv);
  const fzbench::Scale scale = o.tiny ? fzbench::Scale::Tiny : fzbench::Scale::Full;
  return o.trace ? fzbench::run_traced(o, scale) : fzbench::run_untraced(o, scale);
}
