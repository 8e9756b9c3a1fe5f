// A single partition of a topic: a thread-safe, append-only, offset-addressed
// message log — the unit of ordering in the event queue (as in Kafka).
//
// Horus' correctness depends on partition FIFO order: the intra-process
// encoder requires all events of one process to arrive in enqueue order on
// one partition, and the inter-process encoder requires both halves of a
// causal pair to land on the same encoder. Key-based routing onto partitions
// (see Topic) provides both.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace horus::queue {

class FaultInjector;

/// The wake-up signal of one topic: every append to any of its partitions
/// bumps a sequence number and wakes all waiters, so a consumer of several
/// partitions blocks once for all of them. Read seq() before sweeping the
/// partitions, then wait_past() that value: an append landing in between
/// has already moved the sequence, so no wake-up is lost.
class AppendSignal {
 public:
  [[nodiscard]] std::uint64_t seq() const;

  /// Bumps the sequence and wakes every waiter.
  void notify();

  /// Blocks until seq() differs from `seen` or `deadline` passes. Returns
  /// true when the sequence moved.
  bool wait_past(std::uint64_t seen,
                 std::chrono::steady_clock::time_point deadline) const;

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::uint64_t seq_ = 0;
};

struct Message {
  std::uint64_t offset = 0;
  std::string key;
  std::string value;

  [[nodiscard]] bool operator==(const Message&) const = default;
};

class Partition {
 public:
  /// @param on_append the owning topic's signal, raised after every
  ///        append (nullptr for a free-standing partition).
  explicit Partition(AppendSignal* on_append = nullptr)
      : on_append_(on_append) {}
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  /// Appends a message; returns its offset. Raises the topic's signal.
  std::uint64_t append(std::string key, std::string value);

  /// Copies up to `max_messages` starting at `offset` into `out`.
  /// Returns the number fetched (0 when offset is at the end).
  std::size_t fetch(std::uint64_t offset, std::size_t max_messages,
                    std::vector<Message>& out) const;

  /// Next offset to be assigned (== current size; offsets are dense).
  [[nodiscard]] std::uint64_t end_offset() const;

  /// Serializes all messages as JSON lines to `path` (durability).
  void persist(const std::string& path) const;

  /// Replaces contents with messages loaded from `path`.
  void load(const std::string& path);

  /// Attaches the fault-injection harness (see queue/fault.h). A stalled
  /// partition serves nothing from fetch() for a bounded number of
  /// attempts — bounded delivery delay without reordering.
  /// `label` identifies this partition in the injector ("topic/index").
  void set_fault_injector(FaultInjector* injector, std::string label);

 private:
  mutable std::mutex mutex_;
  AppendSignal* on_append_;
  std::vector<Message> log_;
  FaultInjector* fault_ = nullptr;
  std::string fault_label_;
};

}  // namespace horus::queue
