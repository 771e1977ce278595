#include "tracer.hpp"

#include <cinttypes>
#include <cstdio>
#include <unordered_map>

namespace fzbench {

struct Log {
  fz::u32 tid = 0;
  std::vector<Tracer::Rec> recs;
  std::vector<size_t> open;  ///< indices of this thread's open spans
  u64 last_ns = 0;           ///< keeps this thread's timestamps strictly rising
};

namespace {

/// Per-thread cap; past it spans are counted as dropped.
constexpr size_t kMaxSpansPerThread = size_t{1} << 21;

u64 stamp(Log& log, u64 epoch) {
  u64 t = now_ns() - epoch;
  // Strictly increasing per thread, so a span that ends and the next one
  // that starts never share a timestamp and nesting stays unambiguous.
  if (t <= log.last_ns) t = log.last_ns + 1;
  log.last_ns = t;
  return t;
}

}  // namespace

Tracer::Tracer() : epoch_ns_(now_ns()) {}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

Log* Tracer::local() {
  thread_local Log* log = nullptr;
  if (log == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<Log>());
    log = logs_.back().get();
    log->tid = static_cast<fz::u32>(logs_.size());
    log->recs.reserve(4096);
  }
  return log;
}

Tracer::Span::Span(const char* name, u64 req) {
  Tracer& t = Tracer::get();
  if (!t.enabled()) return;
  Log* log = t.local();
  if (log->recs.size() >= kMaxSpansPerThread) {
    t.dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Rec r;
  r.name = name;
  r.id = t.next_id_.fetch_add(1, std::memory_order_relaxed);
  r.tid = log->tid;
  if (!log->open.empty()) {
    const Rec& p = log->recs[log->open.back()];
    r.parent = p.id;
    r.req = req != 0 ? req : p.req;
  } else {
    r.req = req;
  }
  r.start_ns = stamp(*log, t.epoch_ns_);
  log_ = log;
  index_ = log->recs.size();
  log->recs.push_back(r);
  log->open.push_back(index_);
}

Tracer::Span::~Span() {
  if (log_ == nullptr) return;
  log_->recs[index_].end_ns = stamp(*log_, Tracer::get().epoch_ns_);
  log_->open.pop_back();
}

std::vector<Tracer::Rec> Tracer::collect() const {
  std::vector<Rec> all;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_)
    for (const Rec& r : log->recs)
      if (r.end_ns != 0) all.push_back(r);
  std::sort(all.begin(), all.end(), [](const Rec& a, const Rec& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::vector<Tracer::Row> Tracer::summary() const {
  const std::vector<Rec> all = collect();
  std::unordered_map<u64, size_t> by_id;
  by_id.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) by_id[all[i].id] = i;
  std::vector<u64> child_ns(all.size(), 0);
  for (const Rec& r : all) {
    if (r.parent == 0) continue;
    const auto it = by_id.find(r.parent);
    if (it != by_id.end()) child_ns[it->second] += r.end_ns - r.start_ns;
  }
  std::vector<Row> rows;
  std::unordered_map<std::string, size_t> row_of;
  std::vector<std::vector<double>> durs;
  for (size_t i = 0; i < all.size(); ++i) {
    const Rec& r = all[i];
    auto [it, fresh] = row_of.try_emplace(r.name, rows.size());
    if (fresh) {
      rows.emplace_back();
      rows.back().name = r.name;
      durs.emplace_back();
    }
    Row& row = rows[it->second];
    const double dur = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    const double self = dur - static_cast<double>(child_ns[i]) * 1e-9;
    ++row.count;
    row.total_s += dur;
    row.self_s += self;
    row.self_us.push_back(self * 1e6);
    durs[it->second].push_back(dur * 1e6);
  }
  for (size_t i = 0; i < rows.size(); ++i) rows[i].p50_us = median(durs[i]);
  return rows;
}

bool Tracer::write_chrome(const std::string& path, const std::string& workload,
                          u64 seed, size_t max_events) const {
  const std::vector<Rec> all = collect();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"otherData\":{\"workload\":\"%s\",\"seed\":%" PRIu64
               ",\"spans\":%zu,\"dropped\":%zu},\n\"traceEvents\":[\n",
               workload.c_str(), seed, all.size(), dropped());
  const size_t n = std::min(all.size(), max_events);
  for (size_t i = 0; i < n; ++i) {
    const Rec& r = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%" PRIu64 ".%03u,\"dur\":%" PRIu64 ".%03u,"
                 "\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"req\":%" PRIu64 ",\"workload\":\"%s\"}}%s\n",
                 r.name, r.tid, r.start_ns / 1000,
                 static_cast<unsigned>(r.start_ns % 1000),
                 (r.end_ns - r.start_ns) / 1000,
                 static_cast<unsigned>((r.end_ns - r.start_ns) % 1000), r.id,
                 r.parent, r.req, workload.c_str(), i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Tracer::write_summary(std::FILE* f) const {
  std::fprintf(f, "%-44s %9s %11s %11s %11s %11s\n", "span", "count",
               "total_s", "self_s", "p50_us", "self_p50_us");
  for (const Row& r : summary())
    std::fprintf(f, "%-44s %9zu %11.6f %11.6f %11.3f %11.3f\n", r.name.c_str(),
                 r.count, r.total_s, r.self_s, r.p50_us, median(r.self_us));
}

}  // namespace fzbench
