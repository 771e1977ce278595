// The job model of the FZ compression service: fz::Request in,
// fz::Response out.
//
// One pair of structs serves both transports — the in-process
// fz::Service::submit() call (tests, embedders) and the fzd wire protocol
// (service/wire.hpp serializes exactly these fields) — so a job means the
// same thing no matter how it arrives.  Both structs are designed for
// reuse: clearing them retains vector capacities, which is what keeps a
// warm service loop allocation-free (tests/test_service.cpp pins this).
//
// Error delivery is fz::Status only (common/status.hpp): a Response always
// comes back, its status says what happened, and no exception ever crosses
// the service boundary.
#pragma once

#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/pipeline.hpp"

namespace fz {

/// What the service should do with a request's payload.  Values travel on
/// the wire — append only, never renumber.
enum class JobKind : u8 {
  Ping = 0,        ///< liveness probe; echoes an empty Ok response
  Compress = 1,    ///< payload = raw f32 samples (dims/eb describe them)
  CompressF64 = 2, ///< payload = raw f64 samples
  Decompress = 3,  ///< payload = FZ stream or chunked container
  Inspect = 4,     ///< payload = FZ stream; response carries StreamInfo
  Stats = 5,       ///< response payload = scrapeable stats text (fzd only)
};

struct Request {
  JobKind kind = JobKind::Ping;
  /// Tenant the job is accounted/policed under (0 = default tenant).
  u32 tenant = 0;
  /// Compress jobs: field shape; payload must hold dims.count() samples.
  Dims dims;
  /// Compress jobs: the error bound to compress under.
  ErrorBound eb = ErrorBound::relative(1e-3);
  /// The job's input bytes (samples or stream, per `kind`).
  std::vector<u8> payload;
};

struct Response {
  Status status;
  /// Compress: the FZ stream.  Decompress: raw samples (dtype_bytes each).
  /// Stats: the stats text.  Empty for Inspect/Ping and on failure.
  std::vector<u8> payload;
  /// Decompress: shape of the restored field (payload holds dims.count()
  /// samples of dtype_bytes each).
  Dims dims;
  unsigned dtype_bytes = 4;
  /// Compress: ratio/saturation accounting for the produced stream.
  FzStats stats;
  /// Inspect: the full header report (see core/pipeline.hpp).
  StreamInfo info;

  /// Forget the previous job but keep every buffer capacity.
  void reset() {
    status = {};
    payload.clear();
    dims = {};
    dtype_bytes = 4;
    stats = {};
    info = StreamInfo{};
  }
};

/// Per-tenant admission policy, enforced before a job is queued.  A tenant
/// with no registered policy gets the default-constructed one (everything
/// allowed).  Violations come back as StatusCode::PolicyDenied; parameter
/// nonsense (negative bounds, zero dims) is still InvalidParams via
/// FzParams::validate().
struct TenantPolicy {
  /// Tightest error bound the tenant may request, per mode (0 = no floor).
  /// Tighter bounds mean larger streams and slower jobs, so this is the
  /// service's lever against one tenant monopolizing workers.
  double min_abs_eb = 0;
  double min_rel_eb = 0;
  double min_pw_rel_eb = 0;
  /// Largest request payload accepted (0 = unlimited).
  size_t max_payload_bytes = 0;
  /// Whether f64 jobs (twice the scratch footprint) are allowed.
  bool allow_f64 = true;
};

}  // namespace fz
