// fz::Service — the long-lived, in-process compression service.
//
// Every earlier entry point is a one-shot process; this class is the
// "pool it once, stream jobs through" harness the ROADMAP's service story
// needs.  A Service owns a persistent ThreadPool with one fz::Codec per
// worker (the Codec threading contract), so codec state and scratch-pool
// buffers amortize across every request: after warmup a steady loop of
// same-shaped jobs performs zero heap allocations end to end (pinned by
// tests/test_service.cpp with a global operator-new counter).
//
// The fzd daemon (service/server.hpp + fzd_main.cpp) is a thin wire
// wrapper around this class; tests and embedders call submit() directly
// and skip the socket.
//
// Job flow:
//   submit(req, resp)
//     ├─ admission: structural checks (BadRequest), per-tenant policy
//     │  (PolicyDenied), FzParams::validate (InvalidParams) — all before
//     │  a queue slot is taken
//     ├─ bounded queue: `queue_depth` preallocated slots.  A full queue
//     │  REJECTS with StatusCode::QueueFull immediately — backpressure is
//     │  explicit, never an unbounded buffer or a silent drop
//     ├─ dispatch: a waking worker drains up to `batch_max` consecutive
//     │  small jobs (payload <= small_job_bytes) in one queue pass, so
//     │  tiny-message traffic amortizes the wakeup/locking cost
//     └─ completion: the submitting thread blocks until its response is
//        filled in; the status IS the error channel — no exception ever
//        crosses this boundary (Codec::try_* only; the worker pool's
//        dropped_exceptions counter is exported and must stay 0)
//
// Observability: pass a telemetry::Sink to record per-job/per-stage spans
// and pool counters; write_stats_text() renders the scrapeable plain-text
// endpoint fzd serves (docs/SERVICE.md documents the format).  With no
// sink, every hook is a branch and the stats text still carries the
// service's own counters and latency percentiles.
//
// Thread-safety: submit(), counters(), write_stats_text() and set_policy()
// may be called from any number of threads concurrently.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/codec.hpp"
#include "service/job.hpp"

namespace fz {

class Service {
 public:
  /// Hard ceiling on jobs drained per worker wakeup (Options::batch_max is
  /// clamped to it); sized so the drain array lives on the worker's stack.
  static constexpr size_t kMaxBatch = 32;

  struct Options {
    /// Worker threads, one Codec each (0 = max_threads(), one per CPU).
    size_t workers = 0;
    /// Admission-queue slots; a submit against a full queue returns
    /// StatusCode::QueueFull instead of blocking or growing the queue.
    size_t queue_depth = 64;
    /// Max consecutive small jobs one worker drains per wakeup (>=1).
    size_t batch_max = 8;
    /// Payload size at or below which a job counts as "small" for batching.
    size_t small_job_bytes = size_t{64} << 10;
    /// Completed-job latencies retained for the stats percentiles.
    size_t latency_window = 4096;
    /// Optional sink for spans + pool/reader counters; must outlive the
    /// Service.  Null disables telemetry (steady state stays
    /// allocation-free either way — span recording allocates event chunks,
    /// so the zero-allocation soak runs sinkless).
    telemetry::Sink* telemetry = nullptr;
    /// Base parameters for every worker Codec.  The per-job error bound
    /// overrides `codec.eb`; fused_workers 0 is forced to 1 — the service
    /// parallelizes across jobs, not inside one.
    FzParams codec;
  };

  struct Counters {
    u64 accepted = 0;             ///< jobs that took a queue slot
    u64 rejected_queue_full = 0;  ///< backpressure rejections
    u64 rejected_policy = 0;      ///< tenant-policy rejections
    u64 rejected_invalid = 0;     ///< BadRequest/InvalidParams at admission
    u64 rejected_shutdown = 0;    ///< submits after shutdown began
    u64 completed = 0;            ///< responses delivered (any status)
    u64 failed = 0;               ///< completed with a non-Ok status
    u64 batches = 0;              ///< wakeups that drained >1 job
    u64 batched_jobs = 0;         ///< jobs delivered through such drains
    u64 peak_queue_depth = 0;     ///< high-water mark of queued jobs
    u64 queue_len = 0;            ///< jobs queued right now
    u64 dropped_exceptions = 0;   ///< worker-pool contract violations (0)
  };

  Service() : Service(Options{}) {}
  explicit Service(Options options);
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  /// Drains already-admitted jobs, then joins the workers.  Concurrent
  /// submits observe ShuttingDown.
  ~Service();

  /// Run one job to completion (blocking).  Returns resp.status.  `req` and
  /// `resp` must stay valid until submit returns; `resp` is reset first, so
  /// reusing one Response across calls keeps its buffer capacities.
  Status submit(const Request& req, Response& resp);

  /// Install/replace the admission policy for a tenant id.
  void set_policy(u32 tenant, const TenantPolicy& policy);

  Counters counters() const;
  size_t worker_count() const { return pool_.worker_count(); }
  size_t queue_capacity() const { return slots_.size(); }
  telemetry::Sink* sink() const { return sink_; }

  /// The scrapeable stats endpoint body: service counters, queue gauges,
  /// job-latency percentiles, per-stage GB/s from the sink's spans, and
  /// every telemetry counter (pool + reader/chunk-cache), one
  /// `name value` line each.  docs/SERVICE.md pins the format.
  void write_stats_text(std::ostream& os) const;

 private:
  struct Job {
    const Request* req = nullptr;
    Response* resp = nullptr;
    std::chrono::steady_clock::time_point enqueued{};
    bool done = false;
  };
  /// Per-worker state: the codec plus a reused compress-output scratch so
  /// steady-state compress jobs never allocate.
  struct Worker {
    std::unique_ptr<Codec> codec;
    FzCompressed scratch;
  };

  Status admission_check(const Request& req) const;
  void worker_loop(size_t worker);
  void run_job(Worker& w, const Request& req, Response& resp);

  Options opts_;
  telemetry::Sink* sink_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: job queued or stopping
  std::condition_variable done_cv_;  ///< submitters: their job completed
  std::vector<Job*> slots_;          ///< ring of queued jobs (preallocated)
  size_t head_ = 0;                  ///< index of the oldest queued job
  size_t queued_ = 0;                ///< jobs currently in the ring
  bool stop_ = false;
  Counters counters_;
  std::vector<u32> latency_us_;      ///< ring of completed-job latencies
  size_t latency_next_ = 0;
  u64 latency_count_ = 0;

  mutable std::mutex policy_mu_;
  std::map<u32, TenantPolicy> policies_;

  std::vector<Worker> workers_;
  ThreadPool pool_;  ///< last member: joins first, while state is alive
};

}  // namespace fz
