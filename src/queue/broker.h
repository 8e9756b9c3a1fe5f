// Topic and Broker: the multi-topic, partitioned event queue (Kafka
// stand-in) at the heart of the pipeline (components 2 and 4 of the paper's
// Figure 2: one topic for source events, one linking the two encoder
// stages).
//
// Lock discipline / reference stability: Topic objects are heap-allocated
// and are NEVER destroyed or replaced for the lifetime of the Broker —
// create_topic()/topic() return references that stay valid while the broker
// exists, including across persist() and load(). load() loads partition
// contents *into the existing Topic objects* (throwing on a partition-count
// mismatch) instead of clearing the topic map, precisely so that consumers
// and producers holding Topic& across a broker reload are never left with a
// dangling reference. Partition contents themselves are swapped under the
// partition's own mutex, so fetch/produce racing a load() observe either
// the old or the new log, never a torn one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "queue/fault.h"
#include "queue/partition.h"

namespace horus::queue {

/// A named stream of messages split across partitions. Messages with the
/// same key always land on the same partition (stable hash), preserving
/// per-key FIFO order — the property the Horus scale-out design relies on.
class Topic {
 public:
  Topic(std::string name, int num_partitions);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] int num_partitions() const noexcept {
    return static_cast<int>(partitions_.size());
  }

  /// Stable partition assignment for a key.
  [[nodiscard]] int partition_for(const std::string& key) const;

  /// Appends keyed message; returns (partition, offset). With a fault
  /// injector attached this may throw TransientFault (retryable) or append
  /// the message twice (a producer-retry duplicate); in the duplicate case
  /// the returned offset is the first copy's.
  std::pair<int, std::uint64_t> produce(std::string key, std::string value);

  [[nodiscard]] Partition& partition(int index);
  [[nodiscard]] const Partition& partition(int index) const;

  /// Raised by every append to any partition of this topic (consumers
  /// block on it, see Consumer::poll).
  [[nodiscard]] const AppendSignal& append_signal() const noexcept {
    return append_signal_;
  }

  /// Total messages across all partitions.
  [[nodiscard]] std::uint64_t total_messages() const;

  /// Attaches the fault-injection harness to this topic and its partitions.
  void set_fault_injector(FaultInjector* injector);

 private:
  std::string name_;
  AppendSignal append_signal_;  ///< outlives partitions_, which point at it
  std::vector<std::unique_ptr<Partition>> partitions_;
  FaultInjector* fault_ = nullptr;
  obs::Counter* produced_;  ///< horus_queue_produced_total{topic=...}
};

/// The broker owns topics and consumer-group committed offsets, and can
/// persist everything to a directory (durability across restarts).
class Broker {
 public:
  Broker() = default;
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Creates a topic (idempotent if partition count matches; throws on
  /// mismatch). The returned reference is valid for the broker's lifetime.
  Topic& create_topic(const std::string& name, int num_partitions);

  /// Throws if the topic does not exist. The returned reference is valid
  /// for the broker's lifetime.
  [[nodiscard]] Topic& topic(const std::string& name);

  [[nodiscard]] bool has_topic(const std::string& name) const;

  /// Consumer-group offset management (at-least-once semantics: consumers
  /// re-read from the last committed offset after a restart). Committing an
  /// offset for a topic this broker does not know emits a kWarn diagnostic
  /// (a misconfigured group or a dropped topic) but still records the
  /// offset, so a topic created later resumes correctly.
  void commit_offset(const std::string& group, const std::string& topic,
                     int partition, std::uint64_t offset);
  [[nodiscard]] std::uint64_t committed_offset(const std::string& group,
                                               const std::string& topic,
                                               int partition) const;

  /// One committed consumer-group offset, as exported/seeked by the service
  /// checkpoint path.
  struct CommittedOffset {
    std::string group;
    std::string topic;
    int partition = 0;
    std::uint64_t offset = 0;
  };

  /// Every committed offset, atomically (one lock hold). The service
  /// checkpoint bundles this with the graph snapshot so a restarted daemon
  /// replays the queue from exactly the state the graph reflects.
  [[nodiscard]] std::vector<CommittedOffset> offsets_snapshot() const;

  /// Rewinds (or advances) committed offsets to the given records — the
  /// restore half of offsets_snapshot(). Entries for groups not listed are
  /// left untouched.
  void seek_offsets(const std::vector<CommittedOffset>& offsets);

  /// Drops every committed offset whose group name starts with `prefix`
  /// (restore-without-checkpoint: the consumer groups must replay from 0).
  void reset_group_offsets(const std::string& prefix);

  /// Persists all topics and committed offsets into `dir`.
  void persist(const std::string& dir) const;

  /// Loads a broker previously persisted into `dir`. Existing topics are
  /// reused (contents replaced in place; partition-count mismatch throws),
  /// so Topic& references handed out earlier remain valid. Topics present
  /// in memory but absent from the snapshot are kept untouched.
  void load(const std::string& dir);

  /// Attaches the fault-injection harness (applies to existing and future
  /// topics, and to consumers of this broker). Call before workers start;
  /// attachment is not synchronized against in-flight produce/poll.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  /// The attached harness, or nullptr. Valid while the broker lives.
  [[nodiscard]] FaultInjector* fault_injector() const noexcept {
    return fault_.get();
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Topic>> topics_;
  // (group, topic, partition) -> next offset to consume
  std::map<std::tuple<std::string, std::string, int>, std::uint64_t> offsets_;
  std::shared_ptr<FaultInjector> fault_;
};

}  // namespace horus::queue
