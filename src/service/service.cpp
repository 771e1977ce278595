// fzlint:hot-path — the service mutex sits on every job of every client:
// admission, dispatch and completion all cross it.  No allocation, blocking
// wait, or span construction may happen inside its lock scopes (the two
// condition-variable waits below are the deliberate, suppressed
// exceptions); jobs always run outside the lock on a worker's own codec.
#include "service/service.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>

#include "core/chunked.hpp"

namespace fz {

namespace {

/// Percentile over an unsorted window copy (scrape path only).
u32 percentile_us(std::vector<u32>& window, double q) {
  if (window.empty()) return 0;
  const size_t idx = std::min(
      window.size() - 1,
      static_cast<size_t>(q * static_cast<double>(window.size() - 1) + 0.5));
  std::nth_element(window.begin(),
                   window.begin() + static_cast<ptrdiff_t>(idx), window.end());
  return window[static_cast<size_t>(idx)];
}

}  // namespace

Service::Service(Options options) : opts_(options), pool_(options.workers) {
  opts_.queue_depth = std::max<size_t>(opts_.queue_depth, 1);
  opts_.batch_max = std::clamp<size_t>(opts_.batch_max, 1, kMaxBatch);
  opts_.latency_window = std::max<size_t>(opts_.latency_window, 1);
  sink_ = opts_.telemetry;
  slots_.assign(opts_.queue_depth, nullptr);
  latency_us_.assign(opts_.latency_window, 0);

  FzParams cp = opts_.codec;
  cp.telemetry = sink_;
  // The service parallelizes across jobs; one job must not fan out over
  // every hardware thread underneath N concurrent workers.  The cap rides
  // into decompress jobs too (begin_decompress carries it), where the
  // fused decode pass runs one strip per job.
  if (cp.fused_workers == 0) cp.fused_workers = 1;

  // One Codec per pool worker (the Codec threading contract).  Codec
  // construction validates cp, so a misconfigured service fails here with
  // ParamError — the last exception this object can ever surface.
  workers_.reserve(pool_.worker_count());
  for (size_t i = 0; i < pool_.worker_count(); ++i)
    workers_.push_back(Worker{std::make_unique<Codec>(cp), {}});

  // Each long-running loop occupies one pool worker for the service's
  // lifetime; the task index handed in is that worker's stable id.
  for (size_t i = 0; i < pool_.worker_count(); ++i)
    pool_.submit([this](size_t w) { worker_loop(w); });
}

Service::~Service() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  // Workers drain every admitted job before returning, so no submitter is
  // left waiting; concurrent submits see stop_ and reject as ShuttingDown.
  pool_.wait_idle();
}

void Service::set_policy(u32 tenant, const TenantPolicy& policy) {
  const std::lock_guard<std::mutex> lock(policy_mu_);
  policies_[tenant] = policy;
}

Status Service::admission_check(const Request& req) const {
  // Structural validation first: a malformed job is BadRequest no matter
  // whose tenant it is.
  switch (req.kind) {
    case JobKind::Ping:
    case JobKind::Stats:
      break;
    case JobKind::Compress:
    case JobKind::CompressF64: {
      FzParams p = opts_.codec;
      p.eb = req.eb;
      std::vector<ParamIssue> issues = p.validate(req.dims);
      if (!issues.empty())
        return {StatusCode::InvalidParams, ParamError(std::move(issues)).what()};
      const size_t sample = req.kind == JobKind::Compress ? sizeof(f32)
                                                          : sizeof(f64);
      if (req.payload.empty() || req.payload.size() % sample != 0 ||
          req.payload.size() / sample != req.dims.count())
        return {StatusCode::BadRequest,
                "payload does not hold dims.count() samples"};
      break;
    }
    case JobKind::Decompress:
    case JobKind::Inspect:
      if (req.payload.empty())
        return {StatusCode::BadRequest, "empty stream payload"};
      break;
    default:
      return {StatusCode::Unsupported, "unknown job kind"};
  }

  TenantPolicy policy;
  {
    const std::lock_guard<std::mutex> lock(policy_mu_);
    const auto it = policies_.find(req.tenant);
    if (it != policies_.end()) policy = it->second;
  }
  if (policy.max_payload_bytes != 0 &&
      req.payload.size() > policy.max_payload_bytes)
    return {StatusCode::PolicyDenied,
            "payload exceeds the tenant's size cap"};
  if (req.kind == JobKind::CompressF64 && !policy.allow_f64)
    return {StatusCode::PolicyDenied, "tenant may not submit f64 jobs"};
  if (req.kind == JobKind::Compress || req.kind == JobKind::CompressF64) {
    double floor = 0;
    switch (req.eb.mode) {
      case ErrorBoundMode::Absolute:          floor = policy.min_abs_eb; break;
      case ErrorBoundMode::Relative:          floor = policy.min_rel_eb; break;
      case ErrorBoundMode::PointwiseRelative: floor = policy.min_pw_rel_eb;
                                              break;
    }
    if (floor > 0 && req.eb.value < floor)
      return {StatusCode::PolicyDenied,
              "error bound tighter than the tenant's floor"};
  }
  return {};
}

Status Service::submit(const Request& req, Response& resp) {
  resp.reset();
  Status pre = admission_check(req);
  if (!pre.ok()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (pre.code() == StatusCode::PolicyDenied)
        ++counters_.rejected_policy;
      else
        ++counters_.rejected_invalid;
    }
    resp.status = std::move(pre);
    return resp.status;
  }

  Job job;
  job.req = &req;
  job.resp = &resp;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      ++counters_.rejected_shutdown;
      resp.status = Status(StatusCode::ShuttingDown, "shutting down");
      return resp.status;
    }
    if (queued_ == slots_.size()) {
      // Backpressure: reject-with-status, never block or grow the queue.
      // (The literal stays under SSO size so the hot rejection path does
      // not allocate.)
      ++counters_.rejected_queue_full;
      resp.status = Status(StatusCode::QueueFull, "queue full");
      return resp.status;
    }
    job.enqueued = std::chrono::steady_clock::now();
    slots_[(head_ + queued_) % slots_.size()] = &job;
    ++queued_;
    ++counters_.accepted;
    counters_.queue_len = queued_;
    counters_.peak_queue_depth =
        std::max<u64>(counters_.peak_queue_depth, queued_);
  }
  work_cv_.notify_one();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return job.done; });  // fzlint:allow(lock-discipline)
  }
  return resp.status;
}

void Service::worker_loop(size_t worker) {
  Worker& w = workers_[worker];
  std::array<Job*, kMaxBatch> batch{};
  for (;;) {
    size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,  // fzlint:allow(lock-discipline)
                    [&] { return stop_ || queued_ > 0; });
      if (queued_ == 0) return;  // stopping and fully drained
      const auto pop = [&] {
        Job* j = slots_[head_];
        head_ = (head_ + 1) % slots_.size();
        --queued_;
        return j;
      };
      batch[n++] = pop();
      // Small-request batching: drain consecutive small jobs in this same
      // wakeup so tiny-message traffic pays for the lock/wakeup once.
      if (batch[0]->req->payload.size() <= opts_.small_job_bytes) {
        while (n < opts_.batch_max && queued_ > 0 &&
               slots_[head_]->req->payload.size() <= opts_.small_job_bytes)
          batch[n++] = pop();
      }
      if (n > 1) {
        ++counters_.batches;
        counters_.batched_jobs += n;
      }
      counters_.queue_len = queued_;
    }

    for (size_t i = 0; i < n; ++i) {
      telemetry::Span span(sink_, "service-job");
      run_job(w, *batch[i]->req, *batch[i]->resp);
      if (span.enabled()) {
        span.arg("bytes_in",
                 static_cast<double>(batch[i]->req->payload.size()));
        span.arg("bytes_out",
                 static_cast<double>(batch[i]->resp->payload.size()));
        span.arg("batch", static_cast<double>(n));
      }
    }

    const auto now = std::chrono::steady_clock::now();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < n; ++i) {
        Job* j = batch[i];
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            now - j->enqueued)
                            .count();
        latency_us_[latency_next_] =
            static_cast<u32>(std::min<long long>(us, UINT32_MAX));
        latency_next_ = (latency_next_ + 1) % latency_us_.size();
        ++latency_count_;
        ++counters_.completed;
        if (!j->resp->status.ok()) ++counters_.failed;
        j->done = true;
      }
    }
    done_cv_.notify_all();
  }
}

void Service::run_job(Worker& w, const Request& req, Response& resp) {
  // The whole job runs behind the non-throwing Codec boundary; the
  // try/catch is a belt-and-braces backstop (e.g. bad_alloc while resizing
  // a response) so the worker-pool tasks-never-throw contract holds no
  // matter what.
  try {
    switch (req.kind) {
      case JobKind::Ping:
        return;
      case JobKind::Compress:
      case JobKind::CompressF64: {
        Codec& codec = *w.codec;
        codec.params().eb = req.eb;
        Status s;
        if (req.kind == JobKind::Compress) {
          const FloatSpan data{
              reinterpret_cast<const f32*>(req.payload.data()),
              req.payload.size() / sizeof(f32)};
          s = codec.try_compress(data, req.dims, w.scratch);
        } else {
          const std::span<const f64> data{
              reinterpret_cast<const f64*>(req.payload.data()),
              req.payload.size() / sizeof(f64)};
          s = codec.try_compress(data, req.dims, w.scratch);
        }
        if (!s.ok()) {
          resp.status = std::move(s);
          return;
        }
        resp.payload.assign(w.scratch.bytes.begin(), w.scratch.bytes.end());
        resp.stats = w.scratch.stats;
        resp.dims = req.dims;
        resp.dtype_bytes =
            req.kind == JobKind::Compress ? sizeof(f32) : sizeof(f64);
        return;
      }
      case JobKind::Decompress: {
        StreamInfo info;
        Status s = try_inspect(req.payload, info);
        if (!s.ok()) {
          resp.status = std::move(s);
          return;
        }
        if (info.container_version > 0) {
          // Chunked containers decode through the one-shot chunk runner
          // (it owns its own per-chunk codecs); this path allocates its
          // result, unlike the pooled single-stream path below.
          const FzDecompressed d = fz_decompress_chunked(req.payload);
          const u8* bytes = reinterpret_cast<const u8*>(d.data.data());
          resp.payload.assign(bytes, bytes + d.data.size() * sizeof(f32));
          resp.dims = d.dims;
          resp.dtype_bytes = sizeof(f32);
          return;
        }
        resp.payload.resize(info.count * info.dtype_bytes);
        if (info.dtype_bytes == sizeof(f64)) {
          const std::span<f64> out{
              reinterpret_cast<f64*>(resp.payload.data()), info.count};
          s = w.codec->try_decompress_into(req.payload, out, &resp.dims);
        } else {
          const std::span<f32> out{
              reinterpret_cast<f32*>(resp.payload.data()), info.count};
          s = w.codec->try_decompress_into(req.payload, out, &resp.dims);
        }
        if (!s.ok()) {
          resp.payload.clear();
          resp.status = std::move(s);
          return;
        }
        resp.dtype_bytes = info.dtype_bytes;
        return;
      }
      case JobKind::Inspect: {
        Status s = try_inspect(req.payload, resp.info);
        if (!s.ok()) {
          resp.status = std::move(s);
          return;
        }
        resp.dims = resp.info.dims;
        resp.dtype_bytes = resp.info.dtype_bytes;
        return;
      }
      case JobKind::Stats: {
        std::ostringstream text;
        write_stats_text(text);
        const std::string s = text.str();
        resp.payload.assign(s.begin(), s.end());
        return;
      }
    }
    resp.status = Status(StatusCode::Unsupported, "unknown job kind");
  } catch (...) {
    resp.payload.clear();
    resp.status = detail::status_from_current_exception();
  }
}

Service::Counters Service::counters() const {
  Counters c;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    c = counters_;
  }
  c.dropped_exceptions = pool_.dropped_exceptions();
  return c;
}

void Service::write_stats_text(std::ostream& os) const {
  const Counters c = counters();
  std::vector<u32> window;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const size_t filled =
        static_cast<size_t>(std::min<u64>(latency_count_, latency_us_.size()));
    window.assign(latency_us_.begin(),  // fzlint:allow(lock-discipline)
                  latency_us_.begin() + static_cast<ptrdiff_t>(filled));
  }

  os << "# fz service stats: one `name value` per line (docs/SERVICE.md)\n";
  os << "fz_service_up 1\n";
  os << "fz_service_workers " << worker_count() << "\n";
  os << "fz_service_queue_capacity " << queue_capacity() << "\n";
  os << "fz_service_queue_len " << c.queue_len << "\n";
  os << "fz_service_queue_peak " << c.peak_queue_depth << "\n";
  os << "fz_service_jobs_accepted " << c.accepted << "\n";
  os << "fz_service_jobs_completed " << c.completed << "\n";
  os << "fz_service_jobs_failed " << c.failed << "\n";
  os << "fz_service_rejected_queue_full " << c.rejected_queue_full << "\n";
  os << "fz_service_rejected_policy " << c.rejected_policy << "\n";
  os << "fz_service_rejected_invalid " << c.rejected_invalid << "\n";
  os << "fz_service_rejected_shutdown " << c.rejected_shutdown << "\n";
  os << "fz_service_batches " << c.batches << "\n";
  os << "fz_service_batched_jobs " << c.batched_jobs << "\n";
  os << "fz_service_worker_dropped_exceptions " << c.dropped_exceptions
     << "\n";
  os << "fz_service_job_latency_us{quantile=\"0.5\"} "
     << percentile_us(window, 0.50) << "\n";
  os << "fz_service_job_latency_us{quantile=\"0.9\"} "
     << percentile_us(window, 0.90) << "\n";
  os << "fz_service_job_latency_us{quantile=\"0.99\"} "
     << percentile_us(window, 0.99) << "\n";

  if (sink_ != nullptr) {
    // Per-stage throughput from the sink's spans, then every telemetry
    // counter — including the pool and reader/chunk-cache counters, so a
    // Reader sharing this sink reports through the same endpoint.
    for (const telemetry::Sink::StageSummary& s : sink_->stage_summaries()) {
      os << "fz_stage_count{stage=\"" << s.name << "\"} " << s.count << "\n";
      os << "fz_stage_total_ms{stage=\"" << s.name << "\"} " << s.total_ms
         << "\n";
      os << "fz_stage_gbps{stage=\"" << s.name << "\"} " << s.gbps << "\n";
    }
    telemetry::write_counters_text(*sink_, os);
  }
}

}  // namespace fz
