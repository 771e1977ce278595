// fz::telemetry — structured observability for the compression pipeline.
//
// The paper's whole evaluation is per-stage: where does each kernel spend
// its time, how many bytes does it move (Figs. 8–11)?  This subsystem makes
// that view available from any running Codec, not just the bench harness:
//
//   * Span        — RAII stage scope: wall time plus numeric attributes
//                   (bytes in/out, SIMD tier, tile count, pool hits, ...).
//   * Sink        — collects spans from any number of threads.  Each thread
//                   appends to its own chunked ring recorder with a single
//                   release store (lock-free on the hot path); recorders are
//                   merged when a snapshot/export is taken.
//   * Counter     — monotonically updated process counters (pool hit/miss,
//                   bytes retained, dropped events) on the same Sink.
//   * Exporters   — write_summary() renders an aggregated per-stage table
//                   (count, total ms, GB/s, chunk-latency percentiles,
//                   compression ratio); write_chrome_trace() emits JSON for
//                   chrome://tracing / Perfetto, one timeline row per
//                   recording thread, so per-worker scheduling gaps in the
//                   chunked pipeline are directly visible.
//
// Attachment points:
//   * FzParams::telemetry — per-codec sink pointer (core/pipeline.hpp).
//   * FZ_TRACE=<path>     — process-wide env sink; every Codec without an
//                           explicit sink (and every cudasim launch) records
//                           into it, and the Chrome trace is written to
//                           <path> at process exit.
//   * ScopedSink          — thread-local override consulted wherever no
//                           explicit sink was given: Codec construction,
//                           chunked containers, and cudasim::launch all
//                           fall back to active_sink().
//
// Overhead contract: when no sink is attached every hook is one
// branch-on-nullptr — compressed streams stay byte-identical and the
// steady-state paths stay allocation-free (pinned by
// CodecTest.SteadyStateDoesNotAllocate and the telemetry tests).  With a
// sink attached, appends are wait-free for the owning thread; memory grows
// one fixed-size event chunk at a time up to a hard cap, after which events
// are counted as dropped rather than recorded.
//
// Thread-safety: all Sink methods may be called from any thread.  A Span
// must begin and end on the same thread (it holds that thread's recorder).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace fz::telemetry {

/// One completed span.  Plain data; `name`/arg keys point at static strings
/// or strings interned on the owning Sink, so events stay trivially
/// copyable and the hot path never copies characters.
struct TraceEvent {
  static constexpr u32 kMaxArgs = 8;

  struct Arg {
    const char* key = nullptr;
    double value = 0;
  };

  const char* name = nullptr;
  u64 start_ns = 0;  ///< steady-clock ns since the sink's epoch
  u64 dur_ns = 0;
  u32 tid = 0;       ///< recorder (thread) index within the sink
  /// Span nesting depth on that thread at start.  Depth is per thread and
  /// restarts at 0 on every worker thread: a `fused-strip`,
  /// `fused-decode-strip` or `fused-decode-write` span, a `chunk-compress` /
  /// `chunk-decompress` span on a pool worker, or a prefetch `chunk-fetch`
  /// is not deeper than the span that forked it.  It relates to that span
  /// only by time; spans carry no cross-thread parent link.
  u16 depth = 0;
  u16 n_args = 0;
  std::array<Arg, kMaxArgs> args{};
};

/// Fixed process counters updated atomically on the hot path.
enum class Counter : u32 {
  PoolHit = 0,        ///< BufferPool::acquire served from the free list
  PoolMiss,           ///< BufferPool::acquire that had to allocate
  PoolBytesAllocated, ///< cumulative bytes of fresh pool allocations
  PoolBytesRetained,  ///< gauge: bytes currently cached on pool free lists
  EventsDropped,      ///< spans discarded because a recorder hit its cap
  ReaderChunkHit,     ///< Reader demand access answered from the chunk cache
  ReaderChunkMiss,    ///< Reader demand access that had to decode the chunk
  ReaderPrefetchIssued,  ///< chunk decodes issued speculatively
  ReaderPrefetchHit,  ///< demand access that landed on a prefetched chunk
  ReaderChunkEvicted, ///< decoded chunks dropped by the cache's byte budget
  kCount
};
const char* counter_name(Counter c);

namespace detail {

/// Per-thread event log: a linked list of fixed-size chunks.  The owning
/// thread is the only writer; it publishes each event with one release
/// store of the chunk's count (and each new chunk with a release store of
/// the `next` pointer), so concurrent snapshot readers see only fully
/// written events.  No locks, no CAS loops on the append path.
class ThreadRecorder {
 public:
  static constexpr size_t kChunkEvents = 1024;
  /// Hard cap per recorder (chunks); beyond it events count as dropped.
  static constexpr size_t kMaxChunks = 1024;

  explicit ThreadRecorder(u32 tid) : tid_(tid) {}
  ThreadRecorder(const ThreadRecorder&) = delete;
  ThreadRecorder& operator=(const ThreadRecorder&) = delete;
  ~ThreadRecorder();

  u32 tid() const { return tid_; }

  /// Owner thread only.  Ownership is established by Sink::recorder()'s
  /// thread-local registry: a recorder is only ever handed to the thread
  /// that minted it, so these fields need no synchronization.
  bool push(const TraceEvent& ev);
  u16 depth() const { return depth_; }
  void enter() { ++depth_; }
  void leave() { --depth_; }

  /// Any thread: append every published event to `out`.
  void collect(std::vector<TraceEvent>& out) const;

 private:
  struct Chunk {
    std::array<TraceEvent, kChunkEvents> events;
    std::atomic<u32> count{0};
    std::atomic<Chunk*> next{nullptr};
  };

  u32 tid_;
  u16 depth_ = 0;      // owner thread only
  size_t chunks_ = 1;  // owner thread only
  Chunk head_;
  Chunk* tail_ = &head_;  // owner thread only
};

}  // namespace detail

class Span;

/// A telemetry sink: the collection point for spans and counters.  Create
/// one per measurement scope (a service, a bench run, a CLI invocation) and
/// hand it to codecs via FzParams::telemetry, or let FZ_TRACE install a
/// process-wide one.
class Sink {
 public:
  Sink();
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;
  ~Sink();

  // ---- counters ------------------------------------------------------------
  void count(Counter c, i64 delta) {
    counters_[static_cast<u32>(c)].fetch_add(static_cast<u64>(delta),
                                             std::memory_order_relaxed);
  }
  u64 counter(Counter c) const {
    return counters_[static_cast<u32>(c)].load(std::memory_order_relaxed);
  }

  // ---- recording -----------------------------------------------------------
  /// Nanoseconds since this sink's construction (the trace epoch).
  u64 now_ns() const;

  /// Copy a dynamic string into sink-owned storage and return a pointer
  /// that stays valid for the sink's lifetime (for TraceEvent names coming
  /// from std::string, e.g. simulated kernel names).  Deduplicated.
  const char* intern(std::string_view s);

  // ---- export --------------------------------------------------------------
  /// Merge every thread's recorder into one list, sorted by start time.
  std::vector<TraceEvent> snapshot() const;

  /// Aggregated per-stage rows derived from a snapshot.
  struct StageSummary {
    std::string name;
    size_t count = 0;
    double total_ms = 0;
    double bytes = 0;   ///< sum of "bytes_in" args (0 if never attributed)
    double gbps = 0;    ///< bytes / total time (decimal GB, as in the paper)
  };
  std::vector<StageSummary> stage_summaries() const;

  /// Human-readable aggregate: per-stage table, chunk-latency percentiles,
  /// compression ratio, counters.
  void write_summary(std::ostream& os) const;

  /// chrome://tracing / Perfetto JSON ("traceEvents" array of complete
  /// events, one tid per recording thread).
  void write_chrome_trace(std::ostream& os) const;

 private:
  friend class Span;
  detail::ThreadRecorder* recorder();

  const u64 id_;  // process-unique, for the thread-local recorder cache
  u64 epoch_ns_;
  std::array<std::atomic<u64>, static_cast<u32>(Counter::kCount)> counters_{};

  mutable std::mutex reg_mu_;
  std::vector<std::unique_ptr<detail::ThreadRecorder>> recorders_;

  std::mutex intern_mu_;
  std::set<std::string, std::less<>> interned_;
};

/// RAII stage scope.  With a null sink every method is a single branch.
/// Begin and end must happen on the same thread.
class Span {
 public:
  Span(Sink* sink, const char* name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Attach a numeric attribute (drops silently past TraceEvent::kMaxArgs).
  void arg(const char* key, double value);

  /// Record the span now (idempotent; the destructor is then a no-op).
  void end();

  bool enabled() const { return sink_ != nullptr; }
  Sink* sink() const { return sink_; }

 private:
  Sink* sink_;
  detail::ThreadRecorder* rec_ = nullptr;
  TraceEvent ev_{};
};

/// Every process counter of `sink`, one `fz_counter{name="..."} value` line
/// each — the machine-readable sibling of Sink::write_summary's counter row.
/// Both the fzd stats endpoint (fz::Service::write_stats_text) and
/// `fz_cli slice --stats` render pool/reader counters through this one
/// function, so the two surfaces can never drift.
void write_counters_text(const Sink& sink, std::ostream& os);

/// The FZ_TRACE process sink: created on first use when the env var is set
/// (nullptr otherwise).  The Chrome trace is written to $FZ_TRACE at normal
/// process exit; flush_env_sink() writes it earlier on demand.
Sink* env_sink();
void flush_env_sink();

/// Thread-local sink override consulted by every layer when no explicit
/// FzParams::telemetry sink was given (Codec construction, the chunked
/// containers, cudasim::launch).  active_sink() returns the innermost
/// ScopedSink's sink, else env_sink().  Useful for tracing code you cannot
/// pass params through — e.g. the CLI's --trace flag wraps the whole
/// command in one ScopedSink.
class ScopedSink {
 public:
  explicit ScopedSink(Sink* sink);
  ~ScopedSink();
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  Sink* prev_;
};
Sink* active_sink();

}  // namespace fz::telemetry
