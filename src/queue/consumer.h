// Consumer: a group member reading an assigned subset of a topic's
// partitions, with committed-offset resume (at-least-once delivery).
#pragma once

#include <string>
#include <vector>

#include "queue/broker.h"

namespace horus::queue {

/// Record returned by poll(): the message plus its provenance, so callers
/// can commit precisely.
struct ConsumedMessage {
  int partition = 0;
  Message message;
};

class Consumer {
 public:
  /// @param partitions the partitions of `topic` assigned to this member.
  ///        Assignment is static (no rebalancing protocol); the pipeline
  ///        assigns round-robin at construction time.
  Consumer(Broker& broker, std::string group, std::string topic,
           std::vector<int> partitions);

  /// Fetches up to `max_messages` available messages across assigned
  /// partitions, blocking up to `timeout_ms` if none are available anywhere.
  /// The wait ends at the first append to any partition of the topic (its
  /// AppendSignal), so traffic on any assigned partition wakes the poll.
  /// Returned messages advance this consumer's *position* but are not
  /// committed until commit() is called.
  ///
  /// With a fault injector attached to the broker this may throw
  /// TransientFault (retryable poll failure), redeliver the last returned
  /// message again on the next poll, or throw InjectedCrash (the scheduled
  /// death of this consumer's worker — not retryable; build a new Consumer,
  /// which resumes from the committed offsets).
  [[nodiscard]] std::vector<ConsumedMessage> poll(std::size_t max_messages,
                                                  int timeout_ms);

  /// Commits current positions to the broker.
  void commit();

  /// Resets positions to the last committed offsets (simulates a member
  /// restart: uncommitted messages will be redelivered).
  void reset_to_committed();

  [[nodiscard]] const std::vector<int>& partitions() const noexcept {
    return partitions_;
  }

 private:
  Broker& broker_;
  std::string group_;
  std::string topic_name_;
  std::vector<int> partitions_;
  std::vector<std::uint64_t> positions_;  // parallel to partitions_
  obs::Counter* polled_;  ///< horus_queue_polled_total{topic=...}
};

}  // namespace horus::queue
