// CPU baselines measured with real wall-clock time (paper §4.4):
//  * FZ-OMP — the FZ pipeline itself, multi-threaded end to end,
//  * SZ-OMP — the SZ 2.x OpenMP mode: chunked Lorenzo + quantization +
//    Huffman entropy coding (no dictionary stage, matching sz_omp.c).
#pragma once

#include "baselines/compressor.hpp"

namespace fz::bench {

/// Multithreaded CPU run of the FZ pipeline at fused_workers = `workers`;
/// native_*_seconds hold measured wall-clock time (best of `iters`).
RunResult run_fz_omp(const Field& field, double rel_eb, int iters = 3,
                     size_t workers = 0);

/// Multithreaded CPU run of the SZ-OMP pipeline.
RunResult run_sz_omp(const Field& field, double rel_eb, int iters = 3);

}  // namespace fz::bench
