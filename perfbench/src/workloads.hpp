// The four benchmark workloads.  Each is a closed loop driven from one
// process; inputs come from datasets/generators seeded by --seed.
//
//   bulk-large     one caller, one long-lived Codec, fields >= 4x LLC
//   small-mixed    one caller, one long-lived Codec, ~64 KiB fields
//   reader-slices  one caller reading N-D slices through fz::Reader
//   service-mixed  nproc client threads submitting to one fz::Service
//
// README.md in this directory says why each was chosen.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "datasets/field.hpp"

namespace fz::telemetry {
class Sink;
}  // namespace fz::telemetry

namespace fzbench {

/// Full: the sizes the benchmark is defined at.  Probe: the short companion
/// runs a traced run makes of layers its own workload does not use.  Tiny:
/// the self-test.
enum class Scale { Full, Probe, Tiny };

/// One closed-loop measurement.
struct Segment {
  double busy_s = 0;  ///< time inside the measured calls (wall time for
                      ///< the multi-client service loop)
  u64 ops = 0;        ///< codec cycles, slices or jobs
  double bytes = 0;   ///< field bytes those operations carried
  u64 attempted = 0;  ///< library calls checked
  u64 failed = 0;     ///< calls that failed or produced a wrong result
  double p50_us = 0, p90_us = 0, p99_us = 0;
  /// BufferPool misses per call during the segment; NaN when the workload
  /// cannot see its pools (Reader/Service without a telemetry sink).
  double pool_misses_per_call = std::numeric_limits<double>::quiet_NaN();
  std::vector<Metric> layer;       ///< per-layer metrics the workload owns
  std::vector<Metric> named;       ///< the workload's own end-to-end figures
  std::vector<std::string> lines;  ///< human-readable detail

  double ops_per_s() const { return busy_s > 0 ? static_cast<double>(ops) / busy_s : 0; }
  double gbps() const { return busy_s > 0 ? bytes / busy_s / 1e9 : 0; }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate inputs, build the engine and warm it up.  Replaces any
  /// earlier state, so it can be timed repeatedly.
  virtual void setup() = 0;
  /// Rebuild the engine with a telemetry sink attached, and warm it up.
  virtual void attach_sink(fz::telemetry::Sink* sink) = 0;
  /// Run the closed loop for `seconds`, checking every output.
  virtual Segment run(double seconds) = 0;
  /// Input bytes over stream bytes (deterministic for a seed).
  virtual double ratio() const = 0;
  /// Self-test hook: corrupt one stream the next run() decodes.
  virtual void inject_corrupt() = 0;
  /// Setup repetitions whose median is reported as setup_s.
  virtual int setup_reps() const = 0;
};

extern const char* const kWorkloads[4];
bool is_workload(const std::string& name);
std::unique_ptr<Workload> make_workload(const std::string& name, Scale scale,
                                        u64 seed);

/// The first bulk-large input (the Nyx f32 field) for `seed`, on which the
/// traced run measures the kernels.
fz::Field bulk_nyx_field(Scale scale, u64 seed);

}  // namespace fzbench
