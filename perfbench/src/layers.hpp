// Per-layer probes for the traced run.  Each one times calls into a single
// layer's public entry points from outside; none of them is part of an
// end-to-end metric.
#pragma once

#include "common.hpp"
#include "workloads.hpp"

namespace fzbench {

/// Streaming-copy bandwidth (read + written bytes per second, decimal GB/s)
/// over arrays at least four times the LLC, at 1 thread and at `threads`.
struct CopyBandwidth {
  double gbps_1t = 0;
  double gbps_nt = 0;
};
CopyBandwidth measure_copy_bandwidth(Scale scale);

/// common/parallel.hpp: an empty parallel_for at default workers.
void probe_dispatch(Scale scale, Report& out);

/// common/thread_pool.hpp: ThreadPool submit -> task start.
void probe_handoff(Scale scale, Report& out);

/// core/kernels_*, lorenzo and quantizer entry points on the bulk-large Nyx
/// field, each set against the bytes core/costs.* says it moves (or, where
/// costs.* has no sheet, the bytes its arrays hold), plus the codec's
/// scaling efficiency from 1 to nproc workers.  Outputs are checked against
/// the Codec's own stream and reconstruction; mismatches count in
/// `out.failed`.
void probe_kernels(Scale scale, u64 seed, double copy_gbps_nt, Report& out);

}  // namespace fzbench
