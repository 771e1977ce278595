// fz::telemetry contract tests: every stage emits exactly one span per run
// (fused and unfused, f32 and f64, compress and decompress, chunked
// per-worker), counters track the pool, exporters emit valid output, and a
// codec with no sink behaves byte-identically to a traced one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/chunked.hpp"
#include "core/codec.hpp"
#include "cudasim/launch.hpp"
#include "telemetry/telemetry.hpp"

namespace fz {
namespace {

using telemetry::Counter;
using telemetry::ScopedSink;
using telemetry::Sink;
using telemetry::Span;
using telemetry::TraceEvent;

std::vector<f32> wave(size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<f32> v(n);
  for (size_t i = 0; i < n; ++i)
    v[i] = static_cast<f32>(50.0 + 20.0 * std::sin(static_cast<double>(i) * 0.07) +
                            rng.uniform(-0.2, 0.2));
  return v;
}

std::map<std::string, size_t> span_counts(const Sink& sink) {
  std::map<std::string, size_t> counts;
  for (const TraceEvent& ev : sink.snapshot()) ++counts[ev.name];
  return counts;
}

double find_arg(const TraceEvent& ev, const char* key) {
  for (u32 i = 0; i < ev.n_args; ++i)
    if (std::string_view{ev.args[i].key} == key) return ev.args[i].value;
  ADD_FAILURE() << "span " << ev.name << " missing arg " << key;
  return -1;
}

TEST(Telemetry, UnfusedCompressEmitsOneSpanPerStage) {
  // V1 is the way into the classic graph.
  const std::vector<f32> data = wave(4096, 3);
  Sink sink;
  FzParams params;
  params.eb = ErrorBound::absolute(1e-2);
  params.quant = QuantVersion::V1Original;
  params.telemetry = &sink;
  Codec codec(params);
  codec.compress(data, Dims{data.size()});

  const auto counts = span_counts(sink);
  for (const char* stage : {"compress", "resolve-transform", "dual-quant",
                            "bitshuffle-mark", "prefix-sum-encode", "assemble"})
    EXPECT_EQ(counts.at(stage), 1u) << stage;
  EXPECT_EQ(counts.count("fused-quant-shuffle-mark"), 0u);
}

TEST(Telemetry, FusedCompressEmitsOneSpanPerStage) {
  const std::vector<f32> data = wave(4096, 5);
  Sink sink;
  FzParams params;
  params.eb = ErrorBound::absolute(1e-2);
  params.telemetry = &sink;
  Codec codec(params);
  codec.compress(data, Dims{data.size()});

  const auto counts = span_counts(sink);
  for (const char* stage : {"compress", "resolve-transform",
                            "fused-quant-shuffle-mark", "assemble"})
    EXPECT_EQ(counts.at(stage), 1u) << stage;
  EXPECT_EQ(counts.count("dual-quant"), 0u);
  EXPECT_EQ(counts.count("bitshuffle-mark"), 0u);
  // The strips compact their own blocks: no separate encode stage.
  EXPECT_EQ(counts.count("prefix-sum-encode"), 0u);
}

TEST(Telemetry, DecompressAndF64EmitOneSpanPerStage) {
  const std::vector<f32> narrow = wave(2048, 7);
  const std::vector<f64> data(narrow.begin(), narrow.end());
  Sink sink;
  FzParams params;
  params.eb = ErrorBound::absolute(1e-2);
  params.telemetry = &sink;
  Codec codec(params);
  const FzCompressed c = codec.compress(std::span<const f64>{data},
                                        Dims{data.size()});
  std::vector<f64> out(data.size());
  codec.decompress_into(c.bytes, out);

  const auto counts = span_counts(sink);
  EXPECT_EQ(counts.at("compress"), 1u);
  for (const char* stage : {"decompress", "parse-header", "fused-decode"})
    EXPECT_EQ(counts.at(stage), 1u) << stage;
  // The fused decode writes the output itself: no separate reconstruct.
  EXPECT_EQ(counts.count("reconstruct"), 0u);

  // The classic graph, which V1 streams take, still emits its stage
  // spans.
  FzParams v1 = params;
  v1.quant = QuantVersion::V1Original;
  v1.telemetry = nullptr;
  const FzCompressed c1 =
      Codec(v1).compress(std::span<const f64>{data}, Dims{data.size()});
  Sink unfused_sink;
  params.telemetry = &unfused_sink;
  Codec unfused(params);
  unfused.decompress_into(c1.bytes, out);
  const auto unfused_counts = span_counts(unfused_sink);
  for (const char* stage : {"decompress", "parse-header", "scatter-unshuffle",
                            "inverse-quant", "reconstruct"})
    EXPECT_EQ(unfused_counts.at(stage), 1u) << stage;
}

TEST(Telemetry, RunSpanCarriesAttributesAndNestsStages) {
  const std::vector<f32> data = wave(8192, 9);
  // Strips are claimed dynamically, so whether a worker runs one is up to
  // the scheduler: on one core the caller now and then claims every strip
  // before a worker wakes.  Compress cold until a run has recorded a span
  // off the run's thread, checking every run in full.
  size_t off_run_thread = 0;
  for (int attempt = 0; attempt < 8 && off_run_thread == 0; ++attempt) {
    SCOPED_TRACE(attempt);
    Sink sink;
    FzParams params;
    params.eb = ErrorBound::absolute(1e-2);
    params.telemetry = &sink;
    params.fused_workers = 4;  // fan the strips out even on one core
    Codec codec(params);
    const FzCompressed c = codec.compress(data, Dims{data.size()});

    const auto events = sink.snapshot();
    const auto run = std::find_if(events.begin(), events.end(),
                                  [](const TraceEvent& ev) {
                                    return std::string_view{ev.name} ==
                                           "compress";
                                  });
    ASSERT_NE(run, events.end());
    EXPECT_EQ(find_arg(*run, "bytes_in"),
              static_cast<double>(data.size() * 4));
    EXPECT_EQ(find_arg(*run, "bytes_out"),
              static_cast<double>(c.bytes.size()));
    EXPECT_GE(find_arg(*run, "tiles"), 1.0);
    EXPECT_GT(find_arg(*run, "pool_misses"), 0.0);  // cold pool

    // Every span lies inside the run span in time: the fork/join joins
    // before the stage returns.  Depth is per thread (TraceEvent::depth), so
    // only the spans on the run's own thread — the stages and any strip run
    // inline — are deeper than the run; a worker's strip starts at depth 0
    // on its own recorder.
    size_t on_run_thread = 0;
    for (const TraceEvent& ev : events) {
      if (std::string_view{ev.name} == "compress") continue;
      if (ev.tid == run->tid) {
        ++on_run_thread;
        EXPECT_GT(ev.depth, run->depth) << ev.name;
      } else {
        ++off_run_thread;
      }
      EXPECT_GE(ev.start_ns, run->start_ns) << ev.name;
      EXPECT_LE(ev.start_ns + ev.dur_ns, run->start_ns + run->dur_ns)
          << ev.name;
    }
    EXPECT_GT(on_run_thread, 0u);
  }
  EXPECT_GT(off_run_thread, 0u);
}

TEST(Telemetry, ChunkedRecordsPerWorkerSpans) {
  const std::vector<f32> data = wave(6144, 11);
  Sink sink;
  ChunkedParams params;
  params.base.eb = ErrorBound::absolute(1e-2);
  params.base.telemetry = &sink;
  params.num_chunks = 4;
  const ChunkedCompressed c =
      fz_compress_chunked(data, Dims{data.size()}, params);

  const auto events = sink.snapshot();
  size_t chunk_spans = 0;
  std::vector<bool> seen(4, false);
  for (const TraceEvent& ev : events) {
    if (std::string_view{ev.name} != "chunk-compress") continue;
    ++chunk_spans;
    const auto chunk = static_cast<size_t>(find_arg(ev, "chunk"));
    ASSERT_LT(chunk, seen.size());
    EXPECT_FALSE(seen[chunk]) << "chunk " << chunk << " compressed twice";
    seen[chunk] = true;
    EXPECT_GE(find_arg(ev, "worker"), 0.0);
    EXPECT_GT(find_arg(ev, "bytes_out"), 0.0);
  }
  EXPECT_EQ(chunk_spans, 4u);

  const auto counts = span_counts(sink);
  EXPECT_EQ(counts.at("compress-chunked"), 1u);
  EXPECT_EQ(counts.at("compress"), 4u);  // one codec run per chunk
  (void)c;
}

TEST(Telemetry, ChunkedCapOfOneRunsEverySpanOnTheCaller) {
  // max_parallelism = 1 bounds the strips inside each chunk and the range
  // pass too, on compress and decompress alike.  Each 64x64x32 chunk is
  // large enough for an unbounded codec to fork its strips on a multi-core
  // box.
  const Dims dims{64, 64, 64};
  const std::vector<f32> data = wave(dims.count(), 13);
  const size_t offloaded = offloaded_tasks();
  Sink sink;
  {
    ScopedSink scope(&sink);  // the chunked decompress has no params sink
    ChunkedParams params;  // a relative bound, so the range pass runs
    params.num_chunks = 2;
    params.max_parallelism = 1;
    const ChunkedCompressed c = fz_compress_chunked(data, dims, params);
    fz_decompress_chunked(c.bytes, 1);
  }
  EXPECT_EQ(offloaded_tasks(), offloaded);  // no task ran on a helper

  const auto events = sink.snapshot();
  const auto caller = std::find_if(
      events.begin(), events.end(), [](const TraceEvent& ev) {
        return std::string_view{ev.name} == "compress-chunked";
      });
  ASSERT_NE(caller, events.end());
  for (const TraceEvent& ev : events) EXPECT_EQ(ev.tid, caller->tid) << ev.name;
  // One strip per chunk each way.
  const auto counts = span_counts(sink);
  EXPECT_EQ(counts.at("fused-strip"), 2u);
  EXPECT_EQ(counts.at("fused-decode-strip"), 2u);
}

TEST(Telemetry, PoolCountersTrackHitsAndMisses) {
  const std::vector<f32> data = wave(4096, 13);
  Sink sink;
  FzParams params;
  params.eb = ErrorBound::absolute(1e-2);
  params.telemetry = &sink;
  Codec codec(params);

  codec.compress(data, Dims{data.size()});
  const u64 cold_misses = sink.counter(Counter::PoolMiss);
  EXPECT_GT(cold_misses, 0u);
  EXPECT_EQ(sink.counter(Counter::PoolHit), 0u);
  EXPECT_GT(sink.counter(Counter::PoolBytesAllocated), 0u);

  codec.compress(data, Dims{data.size()});
  EXPECT_EQ(sink.counter(Counter::PoolMiss), cold_misses);
  EXPECT_GT(sink.counter(Counter::PoolHit), 0u);
}

TEST(Telemetry, DisabledSinkIsByteIdentical) {
  const std::vector<f32> data = wave(4096, 17);
  FzParams plain;
  plain.eb = ErrorBound::relative(1e-3);
  Codec codec_plain(plain);
  const FzCompressed expected = codec_plain.compress(data, Dims{data.size()});

  Sink sink;
  FzParams traced = plain;
  traced.telemetry = &sink;
  Codec codec_traced(traced);
  EXPECT_EQ(codec_traced.compress(data, Dims{data.size()}).bytes,
            expected.bytes);

  // And the untraced codec recorded nothing, anywhere.
  EXPECT_TRUE(span_counts(sink).count("compress"));
  EXPECT_EQ(codec_plain.telemetry_sink(), nullptr);
}

TEST(Telemetry, RecorderGrowsPastOneChunkWithoutLoss) {
  Sink sink;
  constexpr size_t kSpans = 3000;  // ~3 chunks of 1024
  for (size_t i = 0; i < kSpans; ++i) {
    Span span(&sink, "tick");
    span.arg("i", static_cast<double>(i));
  }
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), kSpans);
  EXPECT_EQ(sink.counter(Counter::EventsDropped), 0u);
  // snapshot() sorts by start time; a single thread's spans are sequential.
  for (size_t i = 0; i < kSpans; ++i)
    EXPECT_EQ(events[i].args[0].value, static_cast<double>(i));
}

TEST(Telemetry, ChromeTraceIsWellFormed) {
  const std::vector<f32> data = wave(2048, 19);
  Sink sink;
  FzParams params;
  params.eb = ErrorBound::absolute(1e-2);
  params.telemetry = &sink;
  Codec codec(params);
  codec.compress(data, Dims{data.size()});

  std::ostringstream os;
  sink.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"compress\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("counter/pool_misses"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  // Balanced braces is a cheap structural check; scripts/validate_trace.py
  // does the full JSON parse in CI.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.back(), '\n');
}

TEST(Telemetry, SummaryAggregatesStages) {
  const std::vector<f32> data = wave(2048, 23);
  Sink sink;
  FzParams params;
  params.eb = ErrorBound::absolute(1e-2);
  params.telemetry = &sink;
  Codec codec(params);
  const FzCompressed c = codec.compress(data, Dims{data.size()});
  codec.compress(data, Dims{data.size()});

  const auto rows = sink.stage_summaries();
  const auto it = std::find_if(rows.begin(), rows.end(),
                               [](const auto& r) { return r.name == "compress"; });
  ASSERT_NE(it, rows.end());
  EXPECT_EQ(it->count, 2u);
  EXPECT_GT(it->total_ms, 0.0);
  EXPECT_GT(it->gbps, 0.0);

  std::ostringstream os;
  sink.write_summary(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("compress"), std::string::npos);
  EXPECT_NE(text.find("pool_misses"), std::string::npos);
  EXPECT_NE(text.find("compression ratio"), std::string::npos);
  (void)c;
}

TEST(Telemetry, CudasimLaunchRecordsCostSheetAttributes) {
  Sink sink;
  {
    ScopedSink scope(&sink);
    cudasim::LaunchConfig cfg;
    cfg.name = "toy-kernel";
    cfg.grid = cudasim::Dim3{2};
    cfg.block = cudasim::Dim3{32};
    std::vector<u32> out(64);
    cudasim::launch(cfg, [&](cudasim::ThreadCtx& t) {
      const u32 g = t.block_idx.x * 32 + t.linear_tid();
      out[g] = g;
      t.count_global_write(sizeof(u32));
      t.count_ops(1);
    });
  }
  const auto events = sink.snapshot();
  const auto it = std::find_if(events.begin(), events.end(),
                               [](const TraceEvent& ev) {
                                 return std::string_view{ev.name} == "toy-kernel";
                               });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(find_arg(*it, "global_bytes_written"), 64.0 * sizeof(u32));
  EXPECT_GE(find_arg(*it, "thread_ops"), 64.0);
}

TEST(Telemetry, ScopedSinkIsPickedUpByCodecAndRestored) {
  const std::vector<f32> data = wave(1024, 29);
  Sink sink;
  {
    ScopedSink scope(&sink);
    EXPECT_EQ(telemetry::active_sink(), &sink);
    Codec codec;  // no explicit sink: falls back to the scoped one
    EXPECT_EQ(codec.telemetry_sink(), &sink);
    codec.compress(data, Dims{data.size()});
  }
  EXPECT_NE(telemetry::active_sink(), &sink);
  EXPECT_EQ(span_counts(sink).at("compress"), 1u);
}

TEST(Telemetry, InternKeepsNameAliveAndDeduplicates) {
  Sink sink;
  const char* a = nullptr;
  {
    std::string name = "ephemeral-" + std::to_string(42);
    a = sink.intern(name);
  }  // original string destroyed
  const char* b = sink.intern(std::string("ephemeral-42"));
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "ephemeral-42");
}

TEST(Telemetry, SinkMergesSpansFromMultipleThreads) {
  Sink sink;
  constexpr size_t kThreads = 4, kEach = 200;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&sink] {
      for (size_t i = 0; i < kEach; ++i) Span span(&sink, "worker-tick");
    });
  for (auto& t : threads) t.join();

  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), kThreads * kEach);
  std::map<u32, size_t> per_tid;
  for (const TraceEvent& ev : events) ++per_tid[ev.tid];
  EXPECT_EQ(per_tid.size(), kThreads);  // one timeline per thread
  for (const auto& [tid, n] : per_tid) EXPECT_EQ(n, kEach) << "tid " << tid;
}

}  // namespace
}  // namespace fz
