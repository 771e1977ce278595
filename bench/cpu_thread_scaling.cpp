// CPU thread scaling (paper §4.4 footnote 5: "the performance of both
// FZ-OMP and SZ-OMP increases as the number of threads increases to 32
// (with up to 21.2x speedup), but it does not increase much with more than
// 32 threads").  Measures FZ-OMP compression wall clock at 1..N codec
// workers (FzParams::fused_workers) on this machine.
//
// A second table measures the chunked container's parallel chunk execution
// (core/chunked.hpp): chunk count fixed, worker count swept, each worker
// running a private fz::Codec.  This is the pooled-codec path, so past the
// first iteration no worker touches the heap for scratch.
#include <cstdio>
#include <vector>

#include "baselines/szomp.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/chunked.hpp"
#include "datasets/generators.hpp"
#include "harness/experiment.hpp"

int main() {
  using namespace fz;
  using namespace fz::bench;

  const auto fields = evaluation_fields(0.12);
  const Field& f = fields[2];  // Hurricane
  const int hw_threads = max_threads();

  std::printf("FZ-OMP thread scaling, field %s %s (%.1f MB), rel eb 1e-3\n",
              f.dataset.c_str(), f.dims.to_string().c_str(),
              static_cast<double>(f.bytes()) / 1e6);
  std::printf("hardware threads available: %d\n\n", hw_threads);
  std::printf("%8s %14s %14s %9s\n", "threads", "compress GB/s",
              "decompress GB/s", "scaling");

  double base = 0;
  for (int threads = 1; threads <= hw_threads; threads *= 2) {
    const RunResult r =
        run_fz_omp(f, 1e-3, 2, static_cast<size_t>(threads));
    const double comp =
        static_cast<double>(f.bytes()) / 1e9 / r.native_compress_seconds;
    const double decomp =
        static_cast<double>(f.bytes()) / 1e9 / r.native_decompress_seconds;
    if (threads == 1) base = comp;
    std::printf("%8d %14.3f %14.3f %8.2fx\n", threads, comp, decomp,
                comp / base);
  }
  std::printf(
      "\nExpected shape (paper, 32-core Xeon): near-linear scaling up to\n"
      "the physical core count, then flat (\"does not increase much with\n"
      "more than 32 threads ... due to the limited workload per core\").\n"
      "On a single-core machine this prints one row.\n");

  // ---- chunked container: parallel chunk workers ---------------------------
  // Sweep to at least 4 workers even on small machines: extra rows there
  // just show oversubscription staying flat, which still exercises the
  // multi-worker path.
  const int max_workers = hw_threads > 4 ? hw_threads : 4;
  ChunkedParams cparams;
  cparams.base.eb = ErrorBound::relative(1e-3);
  // Inner codecs on one worker each, so the sweep isolates the chunk-level
  // parallelism of parallel_tasks + per-worker codecs.
  cparams.base.fused_workers = 1;
  cparams.num_chunks = static_cast<size_t>(max_workers) * 2;  // load balance
  std::printf(
      "\nChunked-container scaling: %zu chunks, worker count swept\n"
      "(per-worker codecs; compress pins each to one worker, decompress\n"
      "codecs borrow any helper the chunk workers leave idle)\n\n",
      cparams.num_chunks);
  std::printf("%8s %14s %14s %9s\n", "workers", "compress GB/s",
              "decompress GB/s", "scaling");
  double chunk_base = 0;
  for (int workers = 1; workers <= max_workers; workers *= 2) {
    cparams.max_parallelism = static_cast<size_t>(workers);
    ChunkedCompressed c;
    const double compress_s = time_best_of(
        2, [&] { c = fz_compress_chunked(f.values(), f.dims, cparams); });
    const double decompress_s = time_best_of(2, [&] {
      const FzDecompressed d =
          fz_decompress_chunked(c.bytes, cparams.max_parallelism);
      (void)d;
    });
    const double comp = throughput_gbps(f.bytes(), compress_s);
    const double decomp = throughput_gbps(f.bytes(), decompress_s);
    if (workers == 1) chunk_base = comp;
    std::printf("%8d %14.3f %14.3f %8.2fx\n", workers, comp, decomp,
                comp / chunk_base);
  }
  std::printf(
      "\nExpected shape: scaling tracks the worker count until it reaches\n"
      "the physical cores; the container bytes are identical at every\n"
      "worker count.\n");
  return 0;
}
