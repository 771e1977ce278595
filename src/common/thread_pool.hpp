// The only code that creates threads (fzlint enforces it):
// * the fork/join executor behind common/parallel.hpp (docs/ARCHITECTURE.md,
//   "Host parallelism"): lazily started helpers, the caller as worker 0,
//   idle helpers only — a fork runs the rest of its tasks inline, so nested
//   and concurrent forks never deadlock or add threads — and at most the
//   calling thread's worker budget per fork;
// * fz::ThreadPool, a persistent FIFO job queue with stable worker
//   indices, so owners (fz::Reader, fz::Service) keep one fz::Codec per
//   worker — the Codec threading contract — with no locking.  Contract:
//   * submit() enqueues task(worker_index); tasks run in FIFO order but
//     complete in any order.  Tasks must not throw — error delivery is the
//     caller's job (fz::Reader routes errors through its cache entries);
//     an escaping exception is swallowed and counted (dropped_exceptions).
//   * wait_idle() blocks until the queue is empty and no task is running.
//   * A task may submit() further tasks, but must NOT wait on another
//     task's completion unless the dependency already runs (waiting on a
//     queued task from inside the last free worker deadlocks).
//   * The destructor drains nothing: it stops after the tasks already
//     dequeued finish and discards the rest.  Call wait_idle() first when
//     every submitted task must run.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace fz {

/// Number of CPUs in the process affinity mask (>= 1), read once.
int max_threads();

/// Most workers one fork can use, caller included: max(16, 2 ×
/// max_threads()); wider requests are clamped.
size_t max_fork_workers();

/// The calling thread's worker budget (>= 1): max_threads() unless a
/// WorkerBudget scope or the fork that runs this task narrowed it.
size_t worker_budget();

/// Sets the calling thread's worker budget for the scope (0 =
/// max_threads()); fz::Codec sets FzParams::fused_workers for each run.
class WorkerBudget {
 public:
  explicit WorkerBudget(size_t workers);
  ~WorkerBudget();
  WorkerBudget(const WorkerBudget&) = delete;
  WorkerBudget& operator=(const WorkerBudget&) = delete;

 private:
  size_t prev_;
};

/// Tasks of the calling thread's forks that it did not run itself (they ran
/// on helpers, or were skipped after an exception), since it started.
size_t offloaded_tasks();

namespace detail {
using ForkTask = void (*)(void* ctx, size_t task, size_t worker);
/// Run task(ctx, i, worker) for i < count on up to `workers` threads.
void fork_join(size_t count, size_t workers, ForkTask task, void* ctx);
}  // namespace detail

/// Number of NUMA memory nodes (>= 1), probed once from
/// /sys/devices/system/node (1 where it is absent).  The first-touch pass
/// (core/kernels_simd.hpp fused_first_touch_strips) gates on it.
size_t numa_node_count();

class ThreadPool {
 public:
  /// Spin up `workers` persistent threads (0 = max_threads()).
  explicit ThreadPool(size_t workers = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  size_t worker_count() const { return threads_.size(); }

  /// Enqueue task(worker_index), worker_index in [0, worker_count()).
  void submit(std::function<void(size_t)> task);

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  /// Tasks whose exceptions escaped into the pool (a contract violation;
  /// exposed so tests can assert it stays zero).
  size_t dropped_exceptions() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(size_t worker);

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue non-empty or stop
  std::condition_variable idle_cv_;  ///< wait_idle: queue drained + all idle
  std::deque<std::function<void(size_t)>> queue_;
  size_t active_ = 0;  ///< tasks currently executing
  bool stop_ = false;
  std::atomic<size_t> dropped_{0};
  std::vector<std::thread> threads_;
};

}  // namespace fz
