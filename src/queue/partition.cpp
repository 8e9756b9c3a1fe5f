#include "queue/partition.h"

#include <fstream>
#include <stdexcept>

#include "common/json.h"
#include "queue/fault.h"

namespace horus::queue {

std::uint64_t AppendSignal::seq() const {
  const std::lock_guard lock(mutex_);
  return seq_;
}

void AppendSignal::notify() {
  {
    const std::lock_guard lock(mutex_);
    ++seq_;
  }
  cv_.notify_all();
}

bool AppendSignal::wait_past(
    std::uint64_t seen, std::chrono::steady_clock::time_point deadline) const {
  std::unique_lock lock(mutex_);
  return cv_.wait_until(lock, deadline, [&] { return seq_ != seen; });
}

std::uint64_t Partition::append(std::string key, std::string value) {
  std::uint64_t offset = 0;
  {
    const std::lock_guard lock(mutex_);
    offset = log_.size();
    log_.push_back(Message{offset, std::move(key), std::move(value)});
  }
  // Raised after the message is visible: a consumer that read the sequence
  // before its sweep either fetched this message or sees the sequence move.
  if (on_append_ != nullptr) on_append_->notify();
  return offset;
}

std::size_t Partition::fetch(std::uint64_t offset, std::size_t max_messages,
                             std::vector<Message>& out) const {
  const std::lock_guard lock(mutex_);
  if (fault_ != nullptr && fault_->consume_stall(fault_label_)) return 0;
  std::size_t n = 0;
  while (offset + n < log_.size() && n < max_messages) {
    out.push_back(log_[offset + n]);
    ++n;
  }
  return n;
}

std::uint64_t Partition::end_offset() const {
  const std::lock_guard lock(mutex_);
  return log_.size();
}

void Partition::persist(const std::string& path) const {
  std::vector<Message> snapshot;
  {
    const std::lock_guard lock(mutex_);
    snapshot = log_;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("queue: cannot open " + path);
  for (const Message& m : snapshot) {
    Json j = Json::object();
    j["offset"] = static_cast<std::int64_t>(m.offset);
    j["key"] = m.key;
    j["value"] = m.value;
    out << j.dump() << '\n';
  }
}

void Partition::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("queue: cannot open " + path);
  std::vector<Message> loaded;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const Json j = Json::parse(line);
    loaded.push_back(Message{
        static_cast<std::uint64_t>(j.at("offset").as_int()),
        j.at("key").as_string(), j.at("value").as_string()});
  }
  {
    const std::lock_guard lock(mutex_);
    log_ = std::move(loaded);
  }
  if (on_append_ != nullptr) on_append_->notify();
}

void Partition::set_fault_injector(FaultInjector* injector, std::string label) {
  const std::lock_guard lock(mutex_);
  fault_ = injector;
  fault_label_ = std::move(label);
}

}  // namespace horus::queue
