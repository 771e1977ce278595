// Service-harness regression bench (PR9 fz::Service / fzd): compress jobs
// streamed through the long-lived service vs. the same work on a direct
// fz::Codec, the multi-client scaling of the worker pool, client-observed
// job-latency percentiles, and a queue-saturation segment that must
// produce explicit QueueFull backpressure.  Byte-identity of every service
// response against the direct codec is asserted while measuring.  Emits a
// machine-readable JSON report (default BENCH_pr9.json) consumed by
// scripts/bench_smoke.sh; the human table goes to stdout.
//
// Usage: service_throughput [--scale S] [--iters N] [--out FILE]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "datasets/generators.hpp"
#include "service/service.hpp"

namespace {

using namespace fz;

double min_seconds(int iters, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

double gbps(size_t bytes, double secs) {
  return static_cast<double>(bytes) / secs / 1e9;
}

/// Run fn(c) for clients c in [0, n), each on its own thread of `crew`
/// (sized to at least n), and wait for all of them.
template <typename Fn>
void run_clients(ThreadPool& crew, size_t n, const Fn& fn) {
  for (size_t c = 0; c < n; ++c) crew.submit([&fn, c](size_t) { fn(c); });
  crew.wait_idle();
}

Request make_request(const Field& f) {
  Request req;
  req.kind = JobKind::Compress;
  req.dims = f.dims;
  req.eb = ErrorBound::relative(1e-3);
  const u8* p = reinterpret_cast<const u8*>(f.values().data());
  req.payload.assign(p, p + f.bytes());
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.06;
  int iters = 3;
  std::string out_path = "BENCH_pr9.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale" && i + 1 < argc) scale = std::stod(argv[++i]);
    else if (arg == "--iters" && i + 1 < argc) iters = std::stoi(argv[++i]);
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: service_throughput [--scale S] [--iters N] "
                   "[--out FILE]\n";
      return 2;
    }
  }

  const size_t hw = static_cast<size_t>(max_threads());
  const Field field = generate_field(
      Dataset::CESM, scaled_dims(Dataset::CESM, std::max(scale, 0.02)), 11);
  const Request req = make_request(field);
  const size_t jobs_per_round = 16;
  const size_t round_bytes = jobs_per_round * field.bytes();

  std::cout << "PR9 service bench: scale=" << scale << " iters=" << iters
            << " dims=" << field.dims.to_string() << " hw threads=" << hw
            << "\n\n";

  // ---- baseline: the same jobs on a direct Codec ---------------------------
  FzParams params;
  params.eb = req.eb;
  params.fused_workers = 1;  // match the service's per-worker codec config
  Codec direct(params);
  FzCompressed expect;
  if (!direct.try_compress(field.values(), field.dims, expect).ok()) {
    std::cerr << "direct compress failed\n";
    return 1;
  }
  const double direct_secs = min_seconds(iters, [&] {
    FzCompressed out;
    for (size_t i = 0; i < jobs_per_round; ++i)
      (void)direct.try_compress(field.values(), field.dims, out);
  });
  const double direct_gbps = gbps(round_bytes, direct_secs);
  std::printf("%-30s %8.3f GB/s\n", "direct codec (1 thread)", direct_gbps);

  // ---- service, one worker / one client: pure harness overhead -------------
  bool byte_identical = true;
  double svc1_gbps = 0;
  {
    Service::Options opt;
    opt.workers = 1;
    Service svc(opt);
    Response resp;
    (void)svc.submit(req, resp);  // warm the worker codec
    byte_identical &= resp.status.ok() && resp.payload == expect.bytes;
    const double secs = min_seconds(iters, [&] {
      for (size_t i = 0; i < jobs_per_round; ++i) (void)svc.submit(req, resp);
    });
    byte_identical &= resp.payload == expect.bytes;
    svc1_gbps = gbps(round_bytes, secs);
  }
  std::printf("%-30s %8.3f GB/s\n", "service (1 worker, 1 client)", svc1_gbps);

  // ---- service, all workers / matching clients: pool scaling ---------------
  double svcN_gbps = 0;
  std::vector<double> latencies_us;
  u64 dropped = 0, failed = 0;
  {
    Service svc;  // default: one worker per hardware thread
    const size_t clients = std::max<size_t>(hw, 2);
    const size_t per_client = 8;
    std::atomic<int> mismatches{0};
    ThreadPool crew(clients);
    // Warm every worker codec before timing.
    run_clients(crew, clients, [&](size_t) {
      Response resp;
      (void)svc.submit(req, resp);
    });
    std::vector<std::vector<double>> lat(clients);
    const double secs = min_seconds(iters, [&] {
      for (auto& v : lat) v.clear();
      run_clients(crew, clients, [&](size_t c) {
        Response resp;
        for (size_t i = 0; i < per_client; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          const Status s = svc.submit(req, resp);
          const auto t1 = std::chrono::steady_clock::now();
          lat[c].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
          if (!s.ok() || resp.payload != expect.bytes) ++mismatches;
        }
      });
    });
    byte_identical &= mismatches.load() == 0;
    svcN_gbps = gbps(clients * per_client * field.bytes(), secs);
    for (const auto& v : lat)
      latencies_us.insert(latencies_us.end(), v.begin(), v.end());
    const Service::Counters c = svc.counters();
    dropped = c.dropped_exceptions + crew.dropped_exceptions();
    failed = c.failed;
  }
  std::printf("%-30s %8.3f GB/s\n", "service (all workers)", svcN_gbps);

  std::sort(latencies_us.begin(), latencies_us.end());
  const auto pct = [&](double q) {
    if (latencies_us.empty()) return 0.0;
    const size_t i = std::min(latencies_us.size() - 1,
                              static_cast<size_t>(q * latencies_us.size()));
    return latencies_us[i];
  };
  const double p50 = pct(0.50), p99 = pct(0.99);
  std::printf("%-30s %8.0f / %.0f us\n", "job latency p50 / p99", p50, p99);

  // ---- saturation: a tiny queue must reject, not block or grow -------------
  u64 queue_full = 0;
  {
    Service::Options opt;
    opt.workers = 1;
    opt.queue_depth = 2;
    opt.batch_max = 1;
    Service svc(opt);
    const size_t floods = 4 * std::max<size_t>(hw, 2);
    ThreadPool crew(floods);
    run_clients(crew, floods, [&](size_t) {
      Response resp;
      for (int i = 0; i < 8; ++i) (void)svc.submit(req, resp);
    });
    queue_full = svc.counters().rejected_queue_full;
    dropped += crew.dropped_exceptions();
  }
  std::printf("%-30s %8llu rejects\n", "saturation backpressure",
              static_cast<unsigned long long>(queue_full));

  const double ratio1 = svc1_gbps / std::max(direct_gbps, 1e-12);
  const double scaling = svcN_gbps / std::max(svc1_gbps, 1e-12);
  std::printf("\nservice/direct (1 worker) %.2fx, pool scaling %.2fx, "
              "byte-identical %s\n",
              ratio1, scaling, byte_identical ? "yes" : "NO");

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"iters\": " << iters << ",\n"
      << "  \"max_threads\": " << hw << ",\n"
      << "  \"byte_identical\": " << (byte_identical ? "true" : "false")
      << ",\n"
      << "  \"direct_gbps\": " << direct_gbps << ",\n"
      << "  \"service_1w_gbps\": " << svc1_gbps << ",\n"
      << "  \"service_all_gbps\": " << svcN_gbps << ",\n"
      << "  \"service_1w_vs_direct\": " << ratio1 << ",\n"
      << "  \"pool_scaling\": " << scaling << ",\n"
      << "  \"latency_p50_us\": " << p50 << ",\n"
      << "  \"latency_p99_us\": " << p99 << ",\n"
      << "  \"queue_full_rejects\": " << queue_full << ",\n"
      << "  \"failed_jobs\": " << failed << ",\n"
      << "  \"dropped_exceptions\": " << dropped << "\n"
      << "}\n";
  std::cout << "report written to " << out_path << "\n";
  return byte_identical && dropped == 0 ? 0 : 1;
}
