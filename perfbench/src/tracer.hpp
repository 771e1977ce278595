// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around each public call it makes
// into the library (the library itself is not instrumented for this).
// Each span keeps its name, start, end, the span that caused it (the
// enclosing span on the same thread) and a request id shared by every span
// of one operation.  Nothing is written until the run ends: then the spans
// go out as Chrome-trace JSON (scripts/validate_trace.py parses it) and as
// a per-name summary with self time (duration minus the time covered by
// child spans).
//
// Recording is off unless enable(true) was called; a disabled Span is one
// branch.  Each thread appends to its own log, so recording takes no lock;
// collect() and the writers must only run once recording threads joined.
#pragma once

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace fzbench {

struct Log;  ///< one thread's span log (tracer.cpp)

class Tracer {
 public:
  struct Rec {
    const char* name = nullptr;  ///< static string
    u64 start_ns = 0;            ///< since the tracer epoch
    u64 end_ns = 0;
    u64 id = 0;
    u64 parent = 0;  ///< 0 = root
    u64 req = 0;     ///< operation (request) id
    fz::u32 tid = 0;
  };

  /// Summary row for one span name.
  struct Row {
    std::string name;
    size_t count = 0;
    double total_s = 0;
    double self_s = 0;
    double p50_us = 0;
    std::vector<double> self_us;  ///< per-span self time
  };

  static Tracer& get();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  u64 next_request() { return next_req_.fetch_add(1, std::memory_order_relaxed); }
  size_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// RAII span.  `req` 0 inherits the enclosing span's request id.
  class Span {
   public:
    explicit Span(const char* name, u64 req = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Log* log_ = nullptr;
    size_t index_ = 0;
  };

  /// Every recorded span, sorted by start time.
  std::vector<Rec> collect() const;
  std::vector<Row> summary() const;

  /// Write the first `max_events` spans (by start time) as Chrome-trace
  /// JSON; returns false when the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& workload,
                    u64 seed, size_t max_events) const;
  /// Write summary() as a text table.
  void write_summary(std::FILE* f) const;

 private:
  friend class Span;
  Tracer();
  Log* local();

  std::atomic<bool> enabled_{false};
  std::atomic<u64> next_id_{1};
  std::atomic<u64> next_req_{1};
  std::atomic<size_t> dropped_{0};
  u64 epoch_ns_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Log>> logs_;
};

}  // namespace fzbench
