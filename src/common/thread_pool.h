// Shared work-stealing thread pool — the one place in the codebase that
// creates threads.
//
// Two facilities, matching the two kinds of concurrency Horus has:
//
//  * Short CPU-bound tasks (query fan-out): parallel_for() runs them on a
//    fixed set of worker threads, each with its own deque. A worker pops
//    its own deque LIFO (cache-warm) and steals FIFO from a victim when
//    empty, so an uneven fan-out rebalances without a global queue
//    bottleneck.
//
//  * Long-running service loops (pipeline encoder workers, the clock
//    daemon): spawn_service() hands back an RAII ServiceThread. Services
//    get dedicated threads — parking a worker on a poll loop would starve
//    the task queues — but their lifecycle (join-on-stop, join-on-destroy,
//    live count for diagnostics) is centralized here instead of being
//    re-implemented per subsystem.
//
// parallel_for() is deadlock-free under nesting: the caller executes
// chunks itself and, while waiting for helpers, drains other pending pool
// tasks ("help while waiting"). A task that itself calls parallel_for()
// therefore always makes progress even when every worker is busy.
//
// Determinism contract: parallel_for() partitions [0, n) into fixed chunks
// of `grain` indices; chunk *scheduling* is dynamic, but chunk *boundaries*
// depend only on (n, grain). Callers that accumulate per-chunk output and
// concatenate it in chunk-index order get byte-identical results to the
// sequential loop — this is how every parallel query path keeps its output
// ordering unchanged (see DESIGN.md §"Parallel query execution").
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace horus {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

class ThreadPool {
 public:
  /// Contiguous index range handed to one parallel_for() body invocation.
  /// `index` is the chunk's position in the deterministic partition of
  /// [0, n) — use it to address per-chunk output slots.
  struct ChunkRange {
    std::size_t index;
    std::size_t begin;
    std::size_t end;
  };

  /// RAII handle for a long-running service thread. join() is idempotent;
  /// the destructor joins. The owning subsystem signals its loop to exit
  /// (its own flag/condition), then calls join().
  class ServiceThread {
   public:
    ServiceThread() = default;
    ServiceThread(ServiceThread&& other) noexcept
        : thread_(std::move(other.thread_)),
          live_(std::exchange(other.live_, nullptr)) {}
    ServiceThread& operator=(ServiceThread&& other) {
      if (this != &other) {
        join();
        thread_ = std::move(other.thread_);
        live_ = std::exchange(other.live_, nullptr);
      }
      return *this;
    }
    ~ServiceThread() { join(); }

    void join() {
      if (thread_.joinable()) thread_.join();
      if (live_ != nullptr) {
        live_->fetch_sub(1, std::memory_order_relaxed);
        live_ = nullptr;
      }
    }

   private:
    friend class ThreadPool;
    ServiceThread(std::thread thread, std::atomic<std::size_t>* live)
        : thread_(std::move(thread)), live_(live) {}

    std::thread thread_;
    std::atomic<std::size_t>* live_ = nullptr;
  };

  /// @param workers number of task worker threads; 0 = default_parallelism().
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Live service threads spawned through this pool (diagnostics).
  [[nodiscard]] std::size_t service_count() const noexcept {
    return services_live_.load(std::memory_order_relaxed);
  }

  /// Runs `body` over the fixed-grain chunking of [0, n) on up to
  /// `max_threads` threads (the caller plus helpers from the pool; 0 =
  /// default_parallelism()). Blocks until every chunk has finished; caller
  /// helps execute unrelated pending tasks while waiting. Exceptions from
  /// `body` propagate to the caller (first one wins).
  void parallel_for(std::size_t n, std::size_t grain, unsigned max_threads,
                    const std::function<void(ChunkRange)>& body);

  /// Number of chunks parallel_for() partitions [0, n) into.
  [[nodiscard]] static std::size_t chunk_count(std::size_t n,
                                               std::size_t grain) noexcept {
    if (grain == 0) grain = 1;
    return n == 0 ? 0 : (n - 1) / grain + 1;
  }

  /// Starts a dedicated long-running thread (see file comment).
  [[nodiscard]] ServiceThread spawn_service(std::function<void()> fn);

  /// Process-wide pool used when callers do not supply their own; sized to
  /// default_parallelism(). Constructed on first use, lives until exit.
  [[nodiscard]] static ThreadPool& shared();

  /// hardware_concurrency(), clamped to at least 1.
  [[nodiscard]] static unsigned default_parallelism() noexcept;

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  /// Enqueues one parallel_for() helper; the future reports its completion.
  std::future<void> submit(std::function<void()> fn);
  void enqueue(std::function<void()> task);
  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, std::function<void()>& out);
  bool try_steal(std::size_t self, std::function<void()>& out);
  /// Runs one pending task from any queue, if there is one.
  bool try_run_one();

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  // Registry instruments, resolved once at construction (see obs/metrics.h).
  // All pools share the same children: process-wide task/steal totals.
  obs::Counter* tasks_total_;
  obs::Counter* steals_total_;
  obs::Counter* help_hits_total_;
  obs::Gauge* queue_depth_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> services_live_{0};
};

}  // namespace horus
