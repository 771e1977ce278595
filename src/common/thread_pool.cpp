// fzlint:hot-path — every fork and every Reader request crosses this
// file's locks; fzlint flags allocation and blocking inside them.
#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>

#if defined(__linux__)
#include <sched.h>
#endif

namespace fz {

namespace {

// ---- fork/join executor -----------------------------------------------------

thread_local size_t t_budget = 0;  ///< 0 = max_threads()
thread_local size_t t_offloaded = 0;

/// One fork, on the forking thread's stack.
struct ForkJob {
  detail::ForkTask task;
  void* ctx;
  size_t count, budget;  ///< budget: the forking thread's, for nested forks
  std::atomic<size_t> next{0}, running{0};
  std::mutex mu{};  ///< guards `error`; helpers finish under it
  std::condition_variable done{};
  std::exception_ptr error{};

  /// Run the reserved tasks [first, last), then claim the rest.  The first
  /// exception ends the claiming.
  size_t run_share(size_t worker, size_t first, size_t last) {
    size_t ran = 0;
    for (size_t i = first; i < count; ++ran) {
      try {
        task(ctx, i, worker);
      } catch (...) {
        next.store(count, std::memory_order_relaxed);
        std::exception_ptr e = std::current_exception();
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::move(e);
      }
      i = ++first < last ? first : next.fetch_add(1, std::memory_order_relaxed);
    }
    return ran;
  }
};

/// A fork claims an idle helper (Idle -> Claimed), then posts (-> Posted);
/// the helper returns to Idle when its share is done.
enum : u32 { kIdle, kClaimed, kPosted };

struct alignas(64) Helper {
  std::atomic<u32> state{kIdle};
  ForkJob* job = nullptr;  ///< written by the claiming fork before the post
  size_t worker = 0;
};

struct Executor {
  const size_t cap =
      std::max<size_t>(16, 2 * static_cast<size_t>(max_threads()));
  const std::unique_ptr<Helper[]> helpers = std::make_unique<Helper[]>(cap);
  std::atomic<size_t> spawned{0};
  std::mutex spawn_mu;
};

/// Never destroyed: a fork from a static destructor must still work.
Executor& executor() {
  static Executor* const ex = new Executor;
  return *ex;
}

/// Poll ready() for up to 50 µs unless helpers outnumber the CPUs, so
/// back-to-back forks find helpers awake but idle ones soon park.
template <typename Ready>
bool spin_until(Ready ready) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::microseconds(50);
  const bool spin = executor().spawned.load(std::memory_order_relaxed) <
                    static_cast<size_t>(max_threads());
  for (unsigned i = 1; spin && !ready(); ++i) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
    if (i % 64 == 0 && clock::now() >= deadline) break;
  }
  return ready();
}

void helper_loop(Helper& h) {
  for (;;) {
    while (!spin_until([&h] {
      return h.state.load(std::memory_order_acquire) == kPosted;
    })) {
      const u32 s = h.state.load(std::memory_order_relaxed);
      if (s != kPosted) h.state.wait(s, std::memory_order_relaxed);
    }
    ForkJob* const job = h.job;
    t_budget = job->budget;
    job->run_share(h.worker, h.worker - 1, h.worker);
    t_budget = 0;
    // Idle first, so the next fork can claim this helper at once; `job`
    // stays alive until `running` reaches 0.
    h.state.store(kIdle, std::memory_order_release);
    const std::lock_guard<std::mutex> lock(job->mu);
    if (job->running.fetch_sub(1, std::memory_order_acq_rel) == 1)
      job->done.notify_one();
  }
}

}  // namespace

int max_threads() {
  static const int n = [] {
#if defined(__linux__)
    cpu_set_t set;
    if (::sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
#endif
    return static_cast<int>(std::thread::hardware_concurrency());
  }();
  return std::max(n, 1);
}

size_t max_fork_workers() { return executor().cap; }

size_t worker_budget() {
  return t_budget != 0 ? t_budget : static_cast<size_t>(max_threads());
}

WorkerBudget::WorkerBudget(size_t workers) : prev_(t_budget) {
  t_budget = workers;
}

WorkerBudget::~WorkerBudget() { t_budget = prev_; }

size_t offloaded_tasks() { return t_offloaded; }

void detail::fork_join(size_t count, size_t workers, ForkTask task,
                       void* ctx) {
  Executor& ex = executor();
  workers = std::min({workers, count, ex.cap});
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) task(ctx, i, 0);
    return;
  }
  ForkJob job{task, ctx, count, worker_budget()};
  if (ex.spawned.load(std::memory_order_acquire) + 1 < workers) {
    const std::lock_guard<std::mutex> lock(ex.spawn_mu);  // start helpers
    for (size_t i = ex.spawned.load(std::memory_order_relaxed); i + 1 < workers;
         ++i) {
      std::thread([&h = ex.helpers[i]] { helper_loop(h); }).detach();
      ex.spawned.store(i + 1, std::memory_order_release);
    }
  }
  // Helper w starts with task w - 1 and the caller with the rest of the
  // first `workers`, so every posted helper takes part.
  job.next.store(workers, std::memory_order_relaxed);
  size_t k = 0;
  const size_t spawned = ex.spawned.load(std::memory_order_acquire);
  for (size_t i = 0; i < spawned && k + 1 < workers; ++i) {
    Helper& h = ex.helpers[i];
    u32 idle = kIdle;
    if (!h.state.compare_exchange_strong(idle, kClaimed,
                                         std::memory_order_acquire))
      continue;
    h.job = &job;
    h.worker = ++k;
    job.running.fetch_add(1, std::memory_order_relaxed);
    h.state.store(kPosted, std::memory_order_release);
    h.state.notify_one();
  }
  const size_t ran = job.run_share(0, k, workers);
  const auto finished = [&job] {
    return job.running.load(std::memory_order_acquire) == 0;
  };
  spin_until(finished);
  {
    // Also orders the last helper's unlock before `job` leaves scope.
    std::unique_lock<std::mutex> lock(job.mu);
    // Condition-variable wait releases the mutex while parked.
    job.done.wait(lock, finished);  // fzlint:allow(lock-discipline)
  }
  t_offloaded += count - ran;
  if (job.error) std::rethrow_exception(job.error);
}

size_t numa_node_count() {
  // Count /sys/devices/system/node/node<N> entries — the same view libnuma
  // reports, without the library dependency.
  static const size_t nodes = [] {
    size_t n = 0;
    std::error_code ec;
    for (const auto& e :
         std::filesystem::directory_iterator("/sys/devices/system/node", ec)) {
      const std::string name = e.path().filename().string();
      n += name.size() > 4 && name.starts_with("node") &&
           name.find_first_not_of("0123456789", 4) == std::string::npos;
    }
    return std::max<size_t>(n, 1);
  }();
  return nodes;
}

ThreadPool::ThreadPool(size_t workers) {
  if (workers == 0) workers = static_cast<size_t>(max_threads());
  threads_.reserve(workers);
  for (size_t w = 0; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    queue_.clear();  // undequeued tasks are discarded, per the contract
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void(size_t)> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // Deque growth is amortized block-at-a-time and submit IS the
    // producer edge — the alternative (allocate a node outside, splice
    // inside) costs an allocation per submit instead of per block.
    queue_.push_back(std::move(task));  // fzlint:allow(lock-discipline)
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  // Condition-variable wait releases the mutex while parked.
  idle_cv_.wait(lock,  // fzlint:allow(lock-discipline)
                [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(size_t worker) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Condition-variable wait releases the mutex while parked.
    work_cv_.wait(lock,  // fzlint:allow(lock-discipline)
                  [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    std::function<void(size_t)> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    try {
      task(worker);
    } catch (...) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    task = nullptr;  // release captures before reporting idle
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace fz
