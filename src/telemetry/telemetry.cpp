// fzlint:hot-path — the recorder registry and intern locks back the
// lock-free span append path; fzlint flags allocation and blocking inside
// their critical sections.
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <ostream>

namespace fz::telemetry {

namespace {

u64 steady_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

std::atomic<u64> g_next_sink_id{1};

/// Thread-local cache: the last (sink, recorder) pair this thread used.
/// Keyed by the sink's process-unique id, not its address, so a new sink
/// allocated at a freed sink's address can never inherit a stale recorder.
struct RecorderCache {
  u64 sink_id = 0;
  detail::ThreadRecorder* rec = nullptr;
};
thread_local RecorderCache t_recorder_cache;

/// Set by ~RecorderRegistry: on the main thread, glibc runs TLS destructors
/// at the start of exit(), BEFORE static destructors — so a static-duration
/// sink (the FZ_TRACE EnvSink) reaches ~Sink with this thread's registry
/// vector already destroyed.  The flag is trivially-destructible, so it
/// stays readable through the whole teardown and lets ~Sink skip the dead
/// vector instead of iterating its freed buffer.
thread_local bool t_registry_dead = false;

/// Every (sink, recorder) pair this thread has ever minted, so a thread that
/// alternates between sinks re-finds its recorder without consulting the
/// sink's registry.  This thread-local list — not a std::thread::id match
/// against the sink's recorders — is the authority for "has this thread used
/// this sink before": thread ids are reused after a join, so an id match
/// could hand a dead worker's recorder to an unrelated fresh thread with no
/// happens-before edge between the two owners (a data race on the
/// owner-only fields; short-lived threads hit this in practice).
struct RecorderRegistry {
  std::vector<RecorderCache> entries;
  ~RecorderRegistry() { t_registry_dead = true; }
};
thread_local RecorderRegistry t_recorder_registry;

thread_local Sink* t_scoped_sink = nullptr;

}  // namespace

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::PoolHit: return "pool_hits";
    case Counter::PoolMiss: return "pool_misses";
    case Counter::PoolBytesAllocated: return "pool_bytes_allocated";
    case Counter::PoolBytesRetained: return "pool_bytes_retained";
    case Counter::EventsDropped: return "events_dropped";
    case Counter::ReaderChunkHit: return "reader_chunk_hits";
    case Counter::ReaderChunkMiss: return "reader_chunk_misses";
    case Counter::ReaderPrefetchIssued: return "reader_prefetch_issued";
    case Counter::ReaderPrefetchHit: return "reader_prefetch_hits";
    case Counter::ReaderChunkEvicted: return "reader_chunks_evicted";
    case Counter::kCount: break;
  }
  return "unknown";
}

// ---- detail::ThreadRecorder -------------------------------------------------

namespace detail {

ThreadRecorder::~ThreadRecorder() {
  Chunk* c = head_.next.load(std::memory_order_acquire);
  while (c != nullptr) {
    Chunk* next = c->next.load(std::memory_order_acquire);
    delete c;
    c = next;
  }
}

bool ThreadRecorder::push(const TraceEvent& ev) {
  u32 n = tail_->count.load(std::memory_order_relaxed);
  if (n == kChunkEvents) {
    if (chunks_ == kMaxChunks) return false;
    Chunk* fresh = new Chunk();
    tail_->next.store(fresh, std::memory_order_release);
    tail_ = fresh;
    ++chunks_;
    n = 0;
  }
  tail_->events[n] = ev;
  tail_->count.store(n + 1, std::memory_order_release);
  return true;
}

void ThreadRecorder::collect(std::vector<TraceEvent>& out) const {
  for (const Chunk* c = &head_; c != nullptr;
       c = c->next.load(std::memory_order_acquire)) {
    const u32 n = c->count.load(std::memory_order_acquire);
    for (u32 i = 0; i < n; ++i) out.push_back(c->events[i]);
  }
}

}  // namespace detail

// ---- Sink -------------------------------------------------------------------

Sink::Sink() : id_(g_next_sink_id.fetch_add(1)), epoch_ns_(steady_ns()) {}

Sink::~Sink() {
  // Drop this thread's cache and registry entry if they point into us;
  // other threads' thread-locals are keyed by id_ and can never match a
  // future sink, so their stale entries are inert.
  if (t_recorder_cache.sink_id == id_) t_recorder_cache = {};
  if (!t_registry_dead)
    std::erase_if(t_recorder_registry.entries,
                  [this](const RecorderCache& e) { return e.sink_id == id_; });
}

u64 Sink::now_ns() const { return steady_ns() - epoch_ns_; }

const char* Sink::intern(std::string_view s) {
  const std::lock_guard<std::mutex> lock(intern_mu_);
  // Deduplicated: allocates once per distinct name for the sink's
  // lifetime, then every later intern of that name is a pure lookup.
  return interned_.emplace(s).first->c_str();  // fzlint:allow(lock-discipline)
}

detail::ThreadRecorder* Sink::recorder() {
  if (t_recorder_cache.sink_id == id_) return t_recorder_cache.rec;
  // Cache miss can also mean "this thread switched sinks and came back" —
  // the thread-local registry re-finds the recorder without minting a
  // duplicate timeline.  A genuinely new thread starts with an empty
  // registry and always mints a fresh recorder, even if it inherited a
  // dead thread's reused std::thread::id.
  detail::ThreadRecorder* rec = nullptr;
  for (const auto& entry : t_recorder_registry.entries)
    if (entry.sink_id == id_) {
      rec = entry.rec;
      break;
    }
  if (rec == nullptr) {
    const std::lock_guard<std::mutex> lock(reg_mu_);
    // Minting a recorder happens once per (thread, sink) pair; every
    // subsequent span from this thread takes the lock-free cache path
    // above, so this is registration cost, not append cost.
    recorders_.push_back(  // fzlint:allow(lock-discipline)
        std::make_unique<detail::ThreadRecorder>(  // fzlint:allow(lock-discipline)
            static_cast<u32>(recorders_.size())));
    rec = recorders_.back().get();
    t_recorder_registry.entries.push_back({id_, rec});  // fzlint:allow(lock-discipline)
  }
  t_recorder_cache = {id_, rec};
  return rec;
}

std::vector<TraceEvent> Sink::snapshot() const {
  std::vector<TraceEvent> out;
  {
    const std::lock_guard<std::mutex> lock(reg_mu_);
    for (const auto& rec : recorders_) rec->collect(out);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

namespace {

double arg_value(const TraceEvent& ev, std::string_view key, double fallback) {
  for (u16 i = 0; i < ev.n_args; ++i)
    if (key == ev.args[i].key) return ev.args[i].value;
  return fallback;
}

}  // namespace

namespace {

std::vector<Sink::StageSummary> summarize(const std::vector<TraceEvent>& events) {
  using StageSummary = Sink::StageSummary;
  std::vector<StageSummary> rows;
  for (const TraceEvent& ev : events) {
    auto it = std::find_if(rows.begin(), rows.end(), [&](const StageSummary& r) {
      return r.name == ev.name;
    });
    if (it == rows.end()) {
      rows.push_back({});
      it = rows.end() - 1;
      it->name = ev.name;
    }
    ++it->count;
    it->total_ms += static_cast<double>(ev.dur_ns) / 1e6;
    it->bytes += arg_value(ev, "bytes_in", 0);
  }
  for (StageSummary& r : rows)
    r.gbps = r.total_ms <= 0 ? 0 : r.bytes / (r.total_ms * 1e-3) / 1e9;
  return rows;
}

}  // namespace

std::vector<Sink::StageSummary> Sink::stage_summaries() const {
  return summarize(snapshot());
}

void Sink::write_summary(std::ostream& os) const {
  const std::vector<TraceEvent> events = snapshot();
  const std::vector<StageSummary> rows = summarize(events);
  os << "telemetry summary\n";
  os << "  spans by name:\n";
  size_t width = 4;
  for (const StageSummary& r : rows) width = std::max(width, r.name.size());
  for (const StageSummary& r : rows) {
    os << "    " << std::left << std::setw(static_cast<int>(width)) << r.name
       << std::right << "  n=" << std::setw(6) << r.count << "  total="
       << std::fixed << std::setprecision(3) << std::setw(10) << r.total_ms
       << " ms";
    if (r.bytes > 0)
      os << "  " << std::setprecision(3) << std::setw(8) << r.gbps << " GB/s";
    os << "\n";
  }

  // Chunk latency percentiles (the chunked container's per-chunk spans).
  std::vector<double> chunk_ms;
  double bytes_in = 0, bytes_out = 0;
  for (const TraceEvent& ev : events) {
    const std::string_view name = ev.name;
    if (name == "chunk-compress" || name == "chunk-decompress")
      chunk_ms.push_back(static_cast<double>(ev.dur_ns) / 1e6);
    // Top-level runs only: a chunked compress also emits one nested
    // "compress" span per chunk, which would double-count the bytes.
    if ((name == "compress" || name == "compress-chunked") && ev.depth == 0) {
      bytes_in += arg_value(ev, "bytes_in", 0);
      bytes_out += arg_value(ev, "bytes_out", 0);
    }
  }
  if (!chunk_ms.empty()) {
    std::sort(chunk_ms.begin(), chunk_ms.end());
    const auto pct = [&](double p) {
      const size_t i = static_cast<size_t>(
          p * static_cast<double>(chunk_ms.size() - 1) + 0.5);
      return chunk_ms[i];
    };
    double mean = 0;
    for (double v : chunk_ms) mean += v;
    mean /= static_cast<double>(chunk_ms.size());
    os << "  chunk latency (ms): n=" << chunk_ms.size() << " min="
       << std::setprecision(3) << chunk_ms.front() << " mean=" << mean
       << " p95=" << pct(0.95) << " max=" << chunk_ms.back() << "\n";
  }
  if (bytes_out > 0)
    os << "  compression ratio: " << std::setprecision(2)
       << bytes_in / bytes_out << "x (" << static_cast<u64>(bytes_in) << " -> "
       << static_cast<u64>(bytes_out) << " bytes)\n";

  os << "  counters:";
  for (u32 c = 0; c < static_cast<u32>(Counter::kCount); ++c)
    os << " " << counter_name(static_cast<Counter>(c)) << "="
       << counter(static_cast<Counter>(c));
  os << "\n";
}

void write_counters_text(const Sink& sink, std::ostream& os) {
  for (u32 c = 0; c < static_cast<u32>(Counter::kCount); ++c)
    os << "fz_counter{name=\"" << counter_name(static_cast<Counter>(c))
       << "\"} " << sink.counter(static_cast<Counter>(c)) << "\n";
}

namespace {

/// Minimal JSON string escape (names are identifiers in practice, but a
/// user-supplied kernel label must not be able to break the trace file).
void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char tmp[8];
          std::snprintf(tmp, sizeof(tmp), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          os << tmp;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

}  // namespace

void Sink::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEvent> events = snapshot();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":";
    write_json_string(os, ev.name);
    // Chrome wants microseconds.  %.3f keeps full ns resolution.
    char tmp[96];
    std::snprintf(tmp, sizeof(tmp),
                  ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                  static_cast<double>(ev.start_ns) / 1e3,
                  static_cast<double>(ev.dur_ns) / 1e3, ev.tid);
    os << tmp;
    if (ev.n_args != 0) {
      os << ",\"args\":{";
      for (u16 i = 0; i < ev.n_args; ++i) {
        if (i != 0) os << ",";
        write_json_string(os, ev.args[i].key);
        std::snprintf(tmp, sizeof(tmp), ":%.17g", ev.args[i].value);
        os << tmp;
      }
      os << "}";
    }
    os << "}";
  }
  // Counters ride along as metadata-style instant events at the tail.
  for (u32 c = 0; c < static_cast<u32>(Counter::kCount); ++c) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":";
    write_json_string(os, std::string("counter/") +
                              counter_name(static_cast<Counter>(c)));
    char tmp[96];
    std::snprintf(tmp, sizeof(tmp),
                  ",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"args\":{\"value\":%llu}}",
                  static_cast<unsigned long long>(
                      counter(static_cast<Counter>(c))));
    os << tmp;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

// ---- Span -------------------------------------------------------------------

Span::Span(Sink* sink, const char* name) : sink_(sink) {
  if (sink_ == nullptr) return;
  rec_ = sink_->recorder();
  ev_.name = name;
  ev_.tid = rec_->tid();
  ev_.depth = rec_->depth();
  rec_->enter();
  ev_.start_ns = sink_->now_ns();  // last: exclude setup from the measurement
}

void Span::arg(const char* key, double value) {
  if (sink_ == nullptr || ev_.n_args == TraceEvent::kMaxArgs) return;
  ev_.args[ev_.n_args++] = {key, value};
}

void Span::end() {
  if (sink_ == nullptr) return;
  ev_.dur_ns = sink_->now_ns() - ev_.start_ns;
  rec_->leave();
  if (!rec_->push(ev_)) sink_->count(Counter::EventsDropped, 1);
  sink_ = nullptr;
}

// ---- env sink + scoped override ---------------------------------------------

namespace {

struct EnvSink {
  std::unique_ptr<Sink> sink;
  std::string path;
  std::atomic<bool> flushed{false};

  EnvSink() {
    const char* p = std::getenv("FZ_TRACE");
    if (p == nullptr || *p == '\0') return;
    path = p;
    sink = std::make_unique<Sink>();
  }

  // Flushing from the destructor (not atexit) keeps the ordering sound: an
  // atexit callback registered during construction would run AFTER this
  // object's own destructor at exit, i.e. on a dead sink.
  ~EnvSink() { flush(); }

  void flush() {
    if (sink == nullptr || flushed.exchange(true)) return;
    std::ofstream os(path);
    if (os) sink->write_chrome_trace(os);
  }
};

EnvSink& env_sink_state() {
  static EnvSink state;  // leak-free: unique_ptr member, static duration
  return state;
}

}  // namespace

Sink* env_sink() { return env_sink_state().sink.get(); }

void flush_env_sink() { env_sink_state().flush(); }

ScopedSink::ScopedSink(Sink* sink) : prev_(t_scoped_sink) {
  t_scoped_sink = sink;
}

ScopedSink::~ScopedSink() { t_scoped_sink = prev_; }

Sink* active_sink() {
  return t_scoped_sink != nullptr ? t_scoped_sink : env_sink();
}

}  // namespace fz::telemetry
