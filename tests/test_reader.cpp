// fz::Reader — random-access slices must be byte-identical to full-stream
// decompression for every worker count and cache budget, the cache/prefetch
// machinery must actually engage (counters), and the building blocks
// (ThreadPool, ChunkCache, Prefetcher) hold their contracts in isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <iterator>
#include <string_view>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/chunked.hpp"
#include "datasets/generators.hpp"
#include "reader/cache.hpp"
#include "reader/prefetcher.hpp"
#include "reader/reader.hpp"
#include "telemetry/telemetry.hpp"
#include "test_data.hpp"

namespace fz {
namespace {

struct Fixture {
  Field field;
  std::vector<u8> container;
  std::vector<f32> full;  ///< reference: full-stream decompress

  static Fixture make(Dims dims, size_t chunks, u64 seed = 21) {
    Fixture fx{generate_field(Dataset::Hurricane, dims, seed), {}, {}};
    ChunkedParams params;
    params.num_chunks = chunks;
    fx.container = fz_compress_chunked(fx.field.values(), dims, params).bytes;
    fx.full = fz_decompress_chunked(fx.container).data;
    return fx;
  }
};

/// The ground truth a slice read must reproduce exactly: the same region
/// copied out of the full decompress.
std::vector<f32> reference_slice(const std::vector<f32>& full, Dims d,
                                 const Slice& s) {
  std::vector<f32> out(s.count());
  for (size_t z = 0; z < s.nz; ++z)
    for (size_t y = 0; y < s.ny; ++y)
      for (size_t x = 0; x < s.nx; ++x)
        out[(z * s.ny + y) * s.nx + x] =
            full[d.linear(s.x + x, s.y + y, s.z + z)];
  return out;
}

void expect_exact(const std::vector<f32>& got, const std::vector<f32>& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(f32)));
}

// ---- byte identity across worker counts and cache budgets -------------------

TEST(Reader, SliceMatchesFullDecompressEveryConfig) {
  const Dims dims{20, 16, 24};
  const Fixture fx = Fixture::make(dims, 6);
  const Slice slices[] = {
      {.nx = 20, .ny = 16, .nz = 24},                            // everything
      {.x = 3, .y = 2, .z = 5, .nx = 9, .ny = 11, .nz = 13},     // interior
      {.x = 0, .y = 0, .z = 23, .nx = 20, .ny = 16, .nz = 1},    // last plane
      {.x = 19, .y = 15, .z = 0, .nx = 1, .ny = 1, .nz = 24},    // a z-column
      {.x = 7, .y = 9, .z = 11, .nx = 1, .ny = 1, .nz = 1},      // one value
  };
  const size_t chunk_bytes = dims.x * dims.y * 4 * sizeof(f32);
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
    // Budgets: everything resident / one chunk (eviction on every read) /
    // zero (every published chunk evicted immediately).
    for (const size_t budget : {size_t{1} << 30, chunk_bytes, size_t{0}}) {
      Reader reader(fx.container,
                    ReaderOptions{.workers = workers, .cache_bytes = budget});
      for (int pass = 0; pass < 2; ++pass) {  // cold, then warm/evicted
        for (const Slice& s : slices) {
          SCOPED_TRACE("workers=" + std::to_string(workers) +
                       " budget=" + std::to_string(budget) +
                       " pass=" + std::to_string(pass));
          expect_exact(reader.read(s),
                       reference_slice(fx.full, dims, s));
        }
      }
    }
  }
}

TEST(Reader, Rank1And2SlicesExact) {
  const Dims d1{4096};
  const Fixture fx1 = Fixture::make(d1, 5, 22);
  Reader r1(fx1.container, ReaderOptions{.workers = 2});
  for (const Slice s : {Slice{.x = 0, .nx = 4096}, Slice{.x = 700, .nx = 901},
                        Slice{.x = 4095, .nx = 1}})
    expect_exact(r1.read(s), reference_slice(fx1.full, d1, s));

  const Dims d2{96, 70};
  const Fixture fx2 = Fixture::make(d2, 4, 23);
  Reader r2(fx2.container, ReaderOptions{.workers = 2});
  for (const Slice s :
       {Slice{.nx = 96, .ny = 70}, Slice{.x = 10, .y = 17, .nx = 33, .ny = 41},
        Slice{.x = 95, .y = 0, .nx = 1, .ny = 70}})
    expect_exact(r2.read(s), reference_slice(fx2.full, d2, s));
}

TEST(Reader, ReadFlatCrossesChunkBoundaries) {
  const Dims dims{64, 48};
  const Fixture fx = Fixture::make(dims, 5);
  Reader reader(fx.container, ReaderOptions{.workers = 2});
  for (const auto [first, n] : std::initializer_list<std::pair<size_t, size_t>>{
           {0, dims.count()}, {600, 1700}, {dims.count() - 1, 1}}) {
    std::vector<f32> got(n);
    reader.read_flat(first, got);
    const std::vector<f32> want(fx.full.begin() + static_cast<long>(first),
                                fx.full.begin() + static_cast<long>(first + n));
    expect_exact(got, want);
  }
}

TEST(Reader, LegacyV1ContainerReads) {
  const Dims dims{32, 24, 10};
  const std::vector<u8> container =
      test::load_test_data(test::kContainerV1Reader);
  const std::vector<f32> full = fz_decompress_chunked(container).data;
  Reader reader(container, ReaderOptions{.workers = 2});
  EXPECT_EQ(reader.info().version, 1u);
  EXPECT_EQ(reader.info().dims, dims);
  const Slice s{.x = 5, .y = 3, .z = 2, .nx = 20, .ny = 18, .nz = 7};
  expect_exact(reader.read(s), reference_slice(full, dims, s));
}

TEST(Reader, SingleFieldStreamWrapsAsOneChunk) {
  const Field f = generate_field(Dataset::CESM, Dims{50, 40}, 24);
  const FzCompressed c = fz_compress(f.values(), f.dims, {});
  const std::vector<f32> full = fz_decompress(c.bytes).data;
  Reader reader(c.bytes, ReaderOptions{.workers = 2});
  EXPECT_EQ(reader.info().version, 0u);
  EXPECT_EQ(reader.chunk_count(), 1u);
  const Slice s{.x = 12, .y = 7, .nx = 30, .ny = 25};
  expect_exact(reader.read(s), reference_slice(full, f.dims, s));
}

// ---- cache / prefetch behaviour ---------------------------------------------

TEST(Reader, HotCacheReusesDecodes) {
  const Fixture fx = Fixture::make(Dims{24, 20, 18}, 6);
  telemetry::Sink sink;
  Reader reader(fx.container, ReaderOptions{.workers = 2,
                                            .max_prefetch = 0,
                                            .telemetry = &sink});
  const Slice s{.z = 4, .nx = 24, .ny = 20, .nz = 8};
  (void)reader.read(s);
  const ReaderStats cold = reader.stats();
  EXPECT_GT(cold.misses, 0u);
  EXPECT_EQ(cold.hits, 0u);
  (void)reader.read(s);
  const ReaderStats warm = reader.stats();
  EXPECT_EQ(warm.misses, cold.misses);  // every chunk answered from cache
  EXPECT_EQ(warm.hits, cold.misses);
  // The sink mirrors the stats counters.
  EXPECT_EQ(sink.counter(telemetry::Counter::ReaderChunkHit), warm.hits);
  EXPECT_EQ(sink.counter(telemetry::Counter::ReaderChunkMiss), warm.misses);
}

TEST(Reader, SequentialSweepPrefetches) {
  const Dims dims{16, 16, 32};
  const Fixture fx = Fixture::make(dims, 8);
  Reader reader(fx.container, ReaderOptions{.workers = 2, .max_prefetch = 4});
  for (size_t z = 0; z < dims.z; z += 4) {
    const Slice s{.z = z, .nx = 16, .ny = 16, .nz = 4};
    expect_exact(reader.read(s), reference_slice(fx.full, dims, s));
  }
  const ReaderStats stats = reader.stats();
  EXPECT_GT(stats.prefetch_issued, 0u);
  EXPECT_GT(stats.prefetch_hits, 0u);
  // Prefetching changes who decodes, never the totals: every chunk was
  // decoded exactly once (demand miss or prefetch), none twice.
  EXPECT_EQ(stats.misses + stats.prefetch_issued, reader.chunk_count());
}

TEST(Reader, EvictionUnderPressureStaysExact) {
  const Dims dims{16, 16, 30};
  const Fixture fx = Fixture::make(dims, 10);
  // Budget of ~2 chunks: a full sweep must evict most of what it decodes.
  const size_t budget = 2 * (dims.x * dims.y * 3 * sizeof(f32));
  Reader reader(fx.container,
                ReaderOptions{.workers = 4, .cache_bytes = budget});
  for (int pass = 0; pass < 2; ++pass) {
    const Slice s{.nx = 16, .ny = 16, .nz = 30};
    expect_exact(reader.read(s), reference_slice(fx.full, dims, s));
  }
  const ReaderStats stats = reader.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, budget);
}

TEST(Reader, RejectsOutOfBoundsSlices) {
  const Fixture fx = Fixture::make(Dims{16, 16, 8}, 2);
  Reader reader(fx.container, ReaderOptions{.workers = 1});
  std::vector<f32> out(16);
  EXPECT_THROW(reader.read(Slice{.x = 1, .nx = 16}, out), Error);
  EXPECT_THROW(reader.read(Slice{.z = 8, .nx = 1, .nz = 1},
                           std::span<f32>(out.data(), 1)),
               Error);
  EXPECT_THROW(reader.read(Slice{.nx = 16, .ny = 0}, out), Error);
  EXPECT_THROW(reader.read(Slice{.nx = 4}, out), Error);  // size mismatch
  EXPECT_THROW(reader.read_flat(fx.full.size(), out), Error);
}

TEST(Reader, CorruptChunkPayloadSurfacesAsError) {
  const Fixture fx = Fixture::make(Dims{16, 16, 8}, 2);
  const ContainerInfo info = fz_container_info(fx.container);
  std::vector<u8> bad = fx.container;
  // Break chunk 1's own stream magic: the container index still parses, the
  // chunk decode fails, and the error must reach the waiting reader (twice
  // — a failed load is not cached).
  const ChunkEntry& c = info.chunks[1];
  bad[c.offset] ^= 0xff;
  Reader reader(bad, ReaderOptions{.workers = 2});
  std::vector<f32> out(16 * 16 * 8);
  EXPECT_THROW(reader.read(Slice{.nx = 16, .ny = 16, .nz = 8}, out), Error);
  EXPECT_THROW(reader.read(Slice{.nx = 16, .ny = 16, .nz = 8}, out), Error);
  // The intact chunk still reads fine.
  const Slice good{.nx = 16, .ny = 16, .nz = 1};
  expect_exact(reader.read(good), reference_slice(fx.full, Dims{16, 16, 8},
                                                  good));
}

// ---- demand decodes on the calling thread -----------------------------------

/// The chunk-fetch spans the sink recorded for each chunk id, and how many
/// of them ran as demand decodes on a caller.
struct FetchCounts {
  std::vector<size_t> fetches, demand;
};

FetchCounts fetch_counts(const telemetry::Sink& sink, size_t chunks) {
  FetchCounts c{std::vector<size_t>(chunks), std::vector<size_t>(chunks)};
  for (const auto& ev : sink.snapshot()) {
    if (std::string_view{ev.name} != "chunk-fetch") continue;
    double chunk = -1, demand = 0;
    for (u16 i = 0; i < ev.n_args; ++i) {
      const std::string_view key{ev.args[i].key};
      if (key == "chunk") chunk = ev.args[i].value;
      if (key == "demand") demand = ev.args[i].value;
    }
    const size_t id = static_cast<size_t>(chunk);
    EXPECT_LT(id, chunks);
    if (id >= chunks) continue;
    ++c.fetches[id];
    if (demand != 0) ++c.demand[id];
  }
  return c;
}

TEST(Reader, ConcurrentOverlappingSlicesMatchFullDecode) {
  // Four callers read overlapping slices — every one touches chunk 2 — so
  // demand decodes on different callers race for the same chunks, fan
  // their strips out concurrently, and share the codec free list.  The
  // cache holds about two chunks, so chunks are decoded again and again.
  const Dims dims{64, 48, 40};
  const Fixture fx = Fixture::make(dims, 8);
  const size_t chunk_bytes = dims.x * dims.y * 5 * sizeof(f32);
  Reader reader(fx.container, ReaderOptions{.workers = 4,
                                            .cache_bytes = 2 * chunk_bytes,
                                            .max_prefetch = 2});
  const Slice slices[] = {
      {.x = 3, .y = 5, .z = 8, .nx = 50, .ny = 30, .nz = 6},
      {.z = 10, .nx = 64, .ny = 48, .nz = 5},
      {.x = 10, .y = 0, .z = 0, .nx = 20, .ny = 48, .nz = 25},
      {.x = 0, .y = 20, .z = 12, .nx = 64, .ny = 8, .nz = 28},
  };
  constexpr size_t kThreads = 4;
  constexpr size_t kReps = 6;
  std::atomic<bool> go{false};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t)
    callers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (size_t rep = 0; rep < kReps; ++rep) {
        const Slice& s = slices[(t + rep) % std::size(slices)];
        const std::vector<f32> got = reader.read(s);
        const std::vector<f32> want = reference_slice(fx.full, dims, s);
        if (std::memcmp(got.data(), want.data(), got.size() * sizeof(f32)) !=
            0)
          mismatches.fetch_add(1);
      }
    });
  go.store(true);
  for (auto& th : callers) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reader.stats().misses, 0u);
}

TEST(Reader, DemandReadOfAPrefetchingChunkWaitsForItWithoutDecodingTwice) {
  // Two sequential reads ramp the prefetcher, which queues chunks 2 and 3
  // on the pool; the demand read of chunk 2 that follows lands on that
  // entry — queued, in flight or done — and must wait for it rather than
  // decode the chunk itself.
  const Dims dims{128, 64, 32};
  const Fixture fx = Fixture::make(dims, 8);
  telemetry::Sink sink;
  Reader reader(fx.container, ReaderOptions{.workers = 1,
                                            .max_prefetch = 2,
                                            .telemetry = &sink});
  const size_t planes = dims.z / reader.chunk_count();
  for (size_t chunk = 0; chunk < 3; ++chunk) {
    const Slice s{.z = chunk * planes, .nx = dims.x, .ny = dims.y,
                  .nz = planes};
    expect_exact(reader.read(s), reference_slice(fx.full, dims, s));
  }
  const ReaderStats st = reader.stats();
  EXPECT_EQ(st.misses, 2u);  // chunks 0 and 1; chunk 2 was prefetched
  EXPECT_GE(st.prefetch_hits, 1u);

  const FetchCounts c = fetch_counts(sink, reader.chunk_count());
  EXPECT_EQ(c.fetches[2], 1u);  // decoded once, by the pool
  EXPECT_EQ(c.demand[2], 0u);
  EXPECT_EQ(c.demand[0], 1u);  // demand misses decode on the caller
  EXPECT_EQ(c.demand[1], 1u);
  for (size_t id = 0; id < reader.chunk_count(); ++id)
    EXPECT_LE(c.fetches[id], 1u) << "chunk " << id;
}

TEST(Reader, CorruptChunkSurfacesToEveryConcurrentWaiter) {
  // Callers racing for a corrupt chunk: whichever loads it publishes the
  // error, every waiter rethrows it, and since failures are not cached
  // each later read fails afresh — no caller hangs, none gets data.
  const Dims dims{32, 32, 16};
  const Fixture fx = Fixture::make(dims, 4);
  const ContainerInfo info = fz_container_info(fx.container);
  std::vector<u8> bad = fx.container;
  bad[info.chunks[1].offset] ^= 0xff;
  Reader reader(bad, ReaderOptions{.workers = 2});

  constexpr size_t kThreads = 4;
  constexpr size_t kReps = 5;
  std::atomic<bool> go{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t)
    callers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (size_t rep = 0; rep < kReps; ++rep) {
        try {
          (void)reader.read(Slice{.z = 2, .nx = 32, .ny = 32, .nz = 8});
        } catch (const FormatError&) {
          failures.fetch_add(1);
        }
      }
    });
  go.store(true);
  for (auto& th : callers) th.join();
  EXPECT_EQ(failures.load(), kThreads * kReps);
  const Slice good{.z = 8, .nx = 32, .ny = 32, .nz = 8};
  expect_exact(reader.read(good), reference_slice(fx.full, dims, good));
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskWithValidWorkerIndices) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<size_t> ran{0};
  std::atomic<bool> bad_worker{false};
  for (int i = 0; i < 200; ++i)
    pool.submit([&](size_t w) {
      if (w >= 4) bad_worker.store(true);
      ran.fetch_add(1);
    });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 200u);
  EXPECT_FALSE(bad_worker.load());
  EXPECT_EQ(pool.dropped_exceptions(), 0u);
}

TEST(ThreadPoolTest, SwallowsAndCountsTaskExceptions) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i)
    pool.submit([](size_t) { throw std::runtime_error("task bug"); });
  pool.wait_idle();
  EXPECT_EQ(pool.dropped_exceptions(), 8u);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<size_t> ran{0};
  pool.submit([&](size_t) {
    ran.fetch_add(1);
    for (int i = 0; i < 5; ++i) pool.submit([&](size_t) { ran.fetch_add(1); });
  });
  // wait_idle only returns once the nested submissions drained too.
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 6u);
}

// ---- Prefetcher -------------------------------------------------------------

TEST(PrefetcherTest, RampsOnSequentialAccessAndResetsOnSeek) {
  Prefetcher p(8);
  EXPECT_TRUE(p.on_access(0, 0, 100).empty());  // one access is no pattern
  EXPECT_EQ(p.on_access(1, 1, 100), (std::vector<size_t>{2, 3}));
  EXPECT_EQ(p.on_access(2, 3, 100), (std::vector<size_t>{4, 5, 6, 7}));
  EXPECT_EQ(p.on_access(4, 4, 100).size(), 8u);  // capped at max_degree
  EXPECT_TRUE(p.on_access(50, 51, 100).empty());  // seek resets the pattern
  EXPECT_EQ(p.on_access(52, 52, 100), (std::vector<size_t>{53, 54}));
}

TEST(PrefetcherTest, ClampsToTheContainerAndHonorsZeroDegree) {
  Prefetcher p(8);
  (void)p.on_access(7, 7, 10);
  EXPECT_EQ(p.on_access(8, 8, 10), (std::vector<size_t>{9}));  // clamped
  EXPECT_TRUE(p.on_access(9, 9, 10).empty());  // nothing past the end

  Prefetcher off(0);
  (void)off.on_access(0, 0, 10);
  EXPECT_TRUE(off.on_access(1, 1, 10).empty());
}

TEST(PrefetcherTest, OverlappingForwardWindowsStillRamp) {
  Prefetcher p(4);
  (void)p.on_access(0, 3, 100);
  EXPECT_FALSE(p.on_access(2, 5, 100).empty());  // overlaps forward
  EXPECT_TRUE(p.on_access(2, 5, 100).empty());   // pure re-read: no advance
}

// ---- ChunkCache -------------------------------------------------------------

TEST(ChunkCacheTest, SingleLoaderPerEntryAndLruEviction) {
  BufferPool buffers;
  ChunkCache cache(2 * 64, nullptr);  // room for two 64-byte chunks

  const auto load = [&](size_t id) {
    ChunkCache::Lookup l = cache.acquire(id, false);
    if (l.load) {
      l.entry->data = buffers.acquire(64);
      cache.publish(id, l.entry, 64);
    }
    return l;
  };

  EXPECT_TRUE(load(0).load);
  EXPECT_FALSE(load(0).load);  // second acquire is a hit
  (void)load(1);
  (void)load(0);  // touch 0 so 1 is now the LRU
  (void)load(2);  // over budget: evicts 1
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(load(1).load);   // 1 was evicted
  EXPECT_EQ(cache.stats().evictions, 2u);  // ...and reloading it evicted 0
  EXPECT_FALSE(load(2).load);  // 2 (recently used) survived both evictions

  const ChunkCache::Stats stats = cache.stats();
  EXPECT_LE(stats.resident_bytes, cache.budget_bytes());
  EXPECT_EQ(stats.resident_chunks, 2u);
}

TEST(ChunkCacheTest, WaitersSeeThePublishedDataAcrossThreads) {
  BufferPool buffers;
  ChunkCache cache(1 << 20, nullptr);
  ChunkCache::Lookup l = cache.acquire(7, false);
  ASSERT_TRUE(l.load);
  std::thread loader([&] {
    PooledBuffer buf = buffers.acquire(256);
    std::memset(buf.data(), 0xab, buf.size());
    l.entry->data = std::move(buf);
    cache.publish(7, l.entry, 256);
  });
  ChunkCache::EntryPtr waiter = cache.acquire(7, false).entry;
  cache.wait_ready(waiter);
  EXPECT_EQ(waiter->data.size(), 256u);
  EXPECT_EQ(waiter->data.data()[255], 0xab);
  loader.join();
}

TEST(ChunkCacheTest, FailedLoadsPropagateAndAreNotCached) {
  ChunkCache cache(1 << 20, nullptr);
  ChunkCache::Lookup l = cache.acquire(3, false);
  ASSERT_TRUE(l.load);
  l.entry->error = std::make_exception_ptr(Error("decode failed"));
  cache.publish(3, l.entry, 0);
  EXPECT_THROW(cache.wait_ready(l.entry), Error);
  EXPECT_TRUE(cache.acquire(3, false).load);  // retried, not cached
}

TEST(ChunkCacheTest, PrefetchAccountingCountsUsefulnessOnce) {
  BufferPool buffers;
  telemetry::Sink sink;
  ChunkCache cache(1 << 20, &sink);
  ChunkCache::Lookup l = cache.acquire(5, true);  // speculative
  ASSERT_TRUE(l.load);
  l.entry->data = buffers.acquire(64);
  cache.publish(5, l.entry, 64);
  (void)cache.acquire(5, false);  // demand lands on the prefetch
  (void)cache.acquire(5, false);  // plain hit, usefulness already counted
  const ChunkCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(sink.counter(telemetry::Counter::ReaderPrefetchIssued), 1u);
  EXPECT_EQ(sink.counter(telemetry::Counter::ReaderPrefetchHit), 1u);
}

}  // namespace
}  // namespace fz
