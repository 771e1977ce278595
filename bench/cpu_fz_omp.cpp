// §4.4 "Comparison with the CPU implementation" reproduction: wall-clock
// throughput of FZ-OMP (this library's native multi-threaded pipeline) versus
// SZ-OMP (Lorenzo + quantization + Huffman) on this machine, plus the
// modeled FZ-GPU(A100)/FZ-OMP speedup the paper reports (37x average).
#include <iostream>

#include "baselines/compressor.hpp"
#include "baselines/szomp.hpp"
#include "common/parallel.hpp"
#include "harness/experiment.hpp"
#include "harness/tables.hpp"

int main() {
  using namespace fz;
  using namespace fz::bench;

  // Smaller scale: these are real single-machine wall-clock measurements.
  const auto fields = evaluation_fields(0.12);
  const cudasim::DeviceModel a100(cudasim::DeviceSpec::a100());
  const auto fzgpu = make_fzgpu();
  const double rel_eb = 1e-3;

  std::cout << "CPU comparison (paper 4.4), " << max_threads()
            << " thread(s), rel eb 1e-3\n"
            << "FZ-OMP / SZ-OMP: measured wall clock on this machine;\n"
            << "FZ-GPU: A100 device model.\n\n";

  Table t({"dataset", "FZ-OMP GB/s", "SZ-OMP GB/s", "FZ-OMP/SZ-OMP",
           "FZ-GPU GB/s (model)", "FZ-GPU/FZ-OMP"});
  for (const Field& f : fields) {
    const RunResult omp = run_fz_omp(f, rel_eb, 2);
    const RunResult szomp = run_sz_omp(f, rel_eb, 2);
    const Measurement gpu = measure(*fzgpu, f, rel_eb, a100);
    const double t_omp =
        static_cast<double>(f.bytes()) / 1e9 / omp.native_compress_seconds;
    const double t_sz =
        static_cast<double>(f.bytes()) / 1e9 / szomp.native_compress_seconds;
    t.add_row({f.dataset, fmt_gbps(t_omp), fmt_gbps(t_sz), fmt(t_omp / t_sz, 2),
               fmt_gbps(gpu.throughput_gbps),
               fmt(gpu.throughput_gbps / t_omp, 1)});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape (paper, 32-core Xeon): FZ-OMP 1.7-2.5x\n"
               "faster than SZ-OMP; FZ-GPU(A100) ~31-42x over FZ-OMP (our\n"
               "CPU has fewer cores, so the GPU/CPU gap scales accordingly).\n";
  return 0;
}
