#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "obs/metrics.h"

namespace horus {

ThreadPool::ThreadPool(unsigned workers)
    : tasks_total_(&obs::Registry::global().counter(
          "horus_pool_tasks_total", "Tasks enqueued onto thread pools")),
      steals_total_(&obs::Registry::global().counter(
          "horus_pool_steals_total",
          "Tasks taken from another worker's deque")),
      help_hits_total_(&obs::Registry::global().counter(
          "horus_pool_help_hits_total",
          "Tasks executed by a waiter via help-while-wait")),
      queue_depth_(&obs::Registry::global().gauge(
          "horus_pool_queue_depth", "Tasks currently pending across pools")) {
  if (workers == 0) workers = default_parallelism();
  queues_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(wake_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Workers drain their queues before exiting, so nothing is left behind
  // for the usual case; any task enqueued after stop is dropped (its future
  // reports broken_promise).
}

unsigned ThreadPool::default_parallelism() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  enqueue([task] { (*task)(); });
  return future;
}

void ThreadPool::enqueue(std::function<void()> task) {
  const std::size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    const std::lock_guard lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  tasks_total_->inc();
  queue_depth_->add(1);
  {
    // Pairs with the wait predicate: the notify cannot slip between the
    // predicate check and the wait.
    const std::lock_guard lock(wake_mutex_);
  }
  wake_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& out) {
  WorkerQueue& q = *queues_[self];
  const std::lock_guard lock(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());  // own deque: LIFO, cache-warm
  q.tasks.pop_back();
  pending_.fetch_sub(1, std::memory_order_relaxed);
  queue_depth_->sub(1);
  return true;
}

bool ThreadPool::try_steal(std::size_t self, std::function<void()>& out) {
  const std::size_t n = queues_.size();
  for (std::size_t i = 1; i < n; ++i) {
    WorkerQueue& q = *queues_[(self + i) % n];
    const std::lock_guard lock(q.mutex);
    if (q.tasks.empty()) continue;
    out = std::move(q.tasks.front());  // victim deque: FIFO (oldest task)
    q.tasks.pop_front();
    pending_.fetch_sub(1, std::memory_order_relaxed);
    queue_depth_->sub(1);
    steals_total_->inc();
    return true;
  }
  return false;
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  bool found = false;
  for (const std::unique_ptr<WorkerQueue>& queue : queues_) {
    const std::lock_guard lock(queue->mutex);
    if (queue->tasks.empty()) continue;
    task = std::move(queue->tasks.front());
    queue->tasks.pop_front();
    pending_.fetch_sub(1, std::memory_order_relaxed);
    found = true;
    break;
  }
  if (!found) return false;
  queue_depth_->sub(1);
  // try_run_one() is only reached from parallel_for's wait loop, so every
  // successful run here is a help-while-wait hit.
  help_hits_total_->inc();
  task();
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task;
    if (try_pop(self, task) || try_steal(self, task)) {
      task();
      continue;
    }
    std::unique_lock lock(wake_mutex_);
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
    wake_.wait(lock, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) != 0;
    });
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              unsigned max_threads,
                              const std::function<void(ChunkRange)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (max_threads == 0) max_threads = default_parallelism();
  const std::size_t chunks = chunk_count(n, grain);
  // Thread budget: the caller plus at most worker_count() helpers, never
  // more than one thread per chunk.
  const std::size_t threads =
      std::min<std::size_t>({max_threads, chunks,
                             static_cast<std::size_t>(worker_count()) + 1});
  if (threads <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      body(ChunkRange{c, c * grain, std::min(n, (c + 1) * grain)});
    }
    return;
  }

  // Chunk boundaries are fixed by (n, grain); only the chunk->thread
  // assignment below is dynamic (atomic claim), so per-chunk outputs merge
  // deterministically regardless of scheduling.
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto run_chunks = [&] {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks || failed.load(std::memory_order_relaxed)) return;
      try {
        body(ChunkRange{c, c * grain, std::min(n, (c + 1) * grain)});
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::future<void>> helpers;
  helpers.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i) {
    helpers.push_back(submit(run_chunks));
  }
  run_chunks();
  // Help while waiting: drain other pending tasks so a nested parallel_for
  // (every worker blocked in a wait like this one) cannot deadlock.
  for (std::future<void>& helper : helpers) {
    while (helper.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!try_run_one()) {
        helper.wait_for(std::chrono::microseconds(200));
      }
    }
    helper.get();
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool::ServiceThread ThreadPool::spawn_service(std::function<void()> fn) {
  services_live_.fetch_add(1, std::memory_order_relaxed);
  return ServiceThread(std::thread(std::move(fn)), &services_live_);
}

}  // namespace horus
