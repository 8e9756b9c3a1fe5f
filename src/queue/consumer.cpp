#include "queue/consumer.h"

#include <chrono>

namespace horus::queue {

Consumer::Consumer(Broker& broker, std::string group, std::string topic,
                   std::vector<int> partitions)
    : broker_(broker),
      group_(std::move(group)),
      topic_name_(std::move(topic)),
      partitions_(std::move(partitions)),
      polled_(&obs::Registry::global().counter(
          "horus_queue_polled_total", "Messages returned by poll() per topic",
          {{"topic", topic_name_}})) {
  positions_.reserve(partitions_.size());
  for (int p : partitions_) {
    positions_.push_back(broker_.committed_offset(group_, topic_name_, p));
  }
}

std::vector<ConsumedMessage> Consumer::poll(std::size_t max_messages,
                                            int timeout_ms) {
  FaultInjector* injector = broker_.fault_injector();
  if (injector != nullptr && injector->should_fail_poll()) {
    throw TransientFault("queue: injected poll failure for group '" + group_ +
                         "'");
  }
  std::vector<ConsumedMessage> out;
  Topic& topic = broker_.topic(topic_name_);
  const AppendSignal& appended = topic.append_signal();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    // Read the sequence before the sweep, so an append racing the sweep
    // still ends the wait below.
    const std::uint64_t seen = appended.seq();
    for (std::size_t i = 0; i < partitions_.size() && out.size() < max_messages;
         ++i) {
      std::vector<Message> batch;
      const std::size_t got = topic.partition(partitions_[i])
                                  .fetch(positions_[i],
                                         max_messages - out.size(), batch);
      positions_[i] += got;
      for (Message& m : batch) {
        out.push_back(ConsumedMessage{partitions_[i], std::move(m)});
      }
    }
    if (!out.empty() || timeout_ms <= 0 || partitions_.empty()) break;
    if (!appended.wait_past(seen, deadline)) break;
  }
  if (injector != nullptr && !out.empty()) {
    if (injector->should_redeliver()) {
      // Rewind our position over the last message: it is delivered now AND
      // will be delivered again on the next poll (at-least-once duplicate
      // on the consumer side).
      const int p = out.back().partition;
      for (std::size_t i = 0; i < partitions_.size(); ++i) {
        if (partitions_[i] == p) {
          --positions_[i];
          break;
        }
      }
    }
    // May throw InjectedCrash — positions are lost with this consumer and
    // the replacement resumes from the committed offsets.
    injector->on_consumed(group_, out.size());
  }
  polled_->inc(out.size());
  return out;
}

void Consumer::commit() {
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    broker_.commit_offset(group_, topic_name_, partitions_[i], positions_[i]);
  }
}

void Consumer::reset_to_committed() {
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    positions_[i] =
        broker_.committed_offset(group_, topic_name_, partitions_[i]);
  }
}

}  // namespace horus::queue
