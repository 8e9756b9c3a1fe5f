#include "queue/broker.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>

#include "common/diag.h"
#include "common/json.h"

namespace horus::queue {

namespace fs = std::filesystem;

Topic::Topic(std::string name, int num_partitions)
    : name_(std::move(name)),
      produced_(&obs::Registry::global().counter(
          "horus_queue_produced_total", "Messages appended per topic",
          {{"topic", name_}})) {
  if (num_partitions <= 0) {
    throw std::invalid_argument("queue: topic needs >= 1 partition");
  }
  partitions_.reserve(static_cast<std::size_t>(num_partitions));
  for (int i = 0; i < num_partitions; ++i) {
    partitions_.push_back(std::make_unique<Partition>(&append_signal_));
  }
}

int Topic::partition_for(const std::string& key) const {
  // FNV-1a: stable across platforms (std::hash<string> is not guaranteed
  // stable, and partition assignment must survive persistence/restart).
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return static_cast<int>(h % partitions_.size());
}

std::pair<int, std::uint64_t> Topic::produce(std::string key,
                                             std::string value) {
  if (fault_ != nullptr && fault_->should_fail_produce()) {
    throw TransientFault("queue: injected produce failure on topic '" +
                         name_ + "'");
  }
  const int p = partition_for(key);
  Partition& partition = *partitions_[static_cast<std::size_t>(p)];
  const bool duplicate = fault_ != nullptr && fault_->should_duplicate();
  if (duplicate) {
    // A producer that retried after a lost ack: the same message lands
    // twice. Downstream stages must absorb it (at-least-once delivery).
    const std::uint64_t offset = partition.append(key, value);
    partition.append(std::move(key), std::move(value));
    produced_->inc(2);
    return {p, offset};
  }
  const std::uint64_t offset =
      partition.append(std::move(key), std::move(value));
  produced_->inc();
  return {p, offset};
}

Partition& Topic::partition(int index) {
  return *partitions_.at(static_cast<std::size_t>(index));
}

const Partition& Topic::partition(int index) const {
  return *partitions_.at(static_cast<std::size_t>(index));
}

std::uint64_t Topic::total_messages() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->end_offset();
  return total;
}

void Topic::set_fault_injector(FaultInjector* injector) {
  fault_ = injector;
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    partitions_[i]->set_fault_injector(injector,
                                       name_ + "/" + std::to_string(i));
  }
}

Topic& Broker::create_topic(const std::string& name, int num_partitions) {
  const std::lock_guard lock(mutex_);
  auto it = topics_.find(name);
  if (it != topics_.end()) {
    if (it->second->num_partitions() != num_partitions) {
      throw std::invalid_argument("queue: topic '" + name +
                                  "' exists with different partition count");
    }
    return *it->second;
  }
  auto [new_it, inserted] =
      topics_.emplace(name, std::make_unique<Topic>(name, num_partitions));
  (void)inserted;
  if (fault_ != nullptr) new_it->second->set_fault_injector(fault_.get());
  return *new_it->second;
}

Topic& Broker::topic(const std::string& name) {
  const std::lock_guard lock(mutex_);
  auto it = topics_.find(name);
  if (it == topics_.end()) {
    throw std::out_of_range("queue: no topic '" + name + "'");
  }
  return *it->second;
}

bool Broker::has_topic(const std::string& name) const {
  const std::lock_guard lock(mutex_);
  return topics_.contains(name);
}

void Broker::commit_offset(const std::string& group, const std::string& topic,
                           int partition, std::uint64_t offset) {
  const std::lock_guard lock(mutex_);
  const auto topic_it = topics_.find(topic);
  if (topic_it == topics_.end()) {
    diag(DiagLevel::kWarn, "queue",
         "offset commit for unknown topic '" + topic + "' (group '" + group +
             "', partition " + std::to_string(partition) + ")");
  } else {
    // Commit-time partition depth: end-of-log minus the committed offset is
    // the backlog this group still has to work through. Commits are per
    // flush cycle (cold path), so the family lookup here is fine.
    const std::uint64_t end =
        topic_it->second->partition(partition).end_offset();
    obs::Registry::global()
        .gauge("horus_queue_partition_depth",
               "Uncommitted backlog (end offset - committed offset)",
               {{"topic", topic}, {"partition", std::to_string(partition)}})
        .set(static_cast<std::int64_t>(end >= offset ? end - offset : 0));
  }
  obs::Registry::global()
      .counter("horus_queue_commits_total", "Offset commits per topic",
               {{"topic", topic}})
      .inc();
  offsets_[std::make_tuple(group, topic, partition)] = offset;
}

std::uint64_t Broker::committed_offset(const std::string& group,
                                       const std::string& topic,
                                       int partition) const {
  const std::lock_guard lock(mutex_);
  auto it = offsets_.find(std::make_tuple(group, topic, partition));
  return it == offsets_.end() ? 0 : it->second;
}

std::vector<Broker::CommittedOffset> Broker::offsets_snapshot() const {
  const std::lock_guard lock(mutex_);
  std::vector<CommittedOffset> out;
  out.reserve(offsets_.size());
  for (const auto& [key, offset] : offsets_) {
    out.push_back(CommittedOffset{std::get<0>(key), std::get<1>(key),
                                  std::get<2>(key), offset});
  }
  return out;
}

void Broker::seek_offsets(const std::vector<CommittedOffset>& offsets) {
  const std::lock_guard lock(mutex_);
  for (const CommittedOffset& o : offsets) {
    offsets_[std::make_tuple(o.group, o.topic, o.partition)] = o.offset;
  }
}

void Broker::reset_group_offsets(const std::string& prefix) {
  const std::lock_guard lock(mutex_);
  for (auto it = offsets_.begin(); it != offsets_.end();) {
    if (std::get<0>(it->first).rfind(prefix, 0) == 0) {
      it = offsets_.erase(it);
    } else {
      ++it;
    }
  }
}

void Broker::persist(const std::string& dir) const {
  const std::lock_guard lock(mutex_);
  fs::create_directories(dir);

  Json meta = Json::object();
  Json topics = Json::array();
  for (const auto& [name, topic] : topics_) {
    Json t = Json::object();
    t["name"] = name;
    t["partitions"] = static_cast<std::int64_t>(topic->num_partitions());
    topics.push_back(std::move(t));
    for (int p = 0; p < topic->num_partitions(); ++p) {
      topic->partition(p).persist(dir + "/" + name + "." +
                                  std::to_string(p) + ".log");
    }
  }
  meta["topics"] = std::move(topics);

  Json offs = Json::array();
  for (const auto& [key, offset] : offsets_) {
    Json o = Json::object();
    o["group"] = std::get<0>(key);
    o["topic"] = std::get<1>(key);
    o["partition"] = static_cast<std::int64_t>(std::get<2>(key));
    o["offset"] = static_cast<std::int64_t>(offset);
    offs.push_back(std::move(o));
  }
  meta["offsets"] = std::move(offs);

  std::ofstream out(dir + "/broker.json", std::ios::trunc);
  if (!out) throw std::runtime_error("queue: cannot write broker metadata");
  out << meta.dump_pretty() << '\n';
}

void Broker::load(const std::string& dir) {
  const std::lock_guard lock(mutex_);
  std::ifstream in(dir + "/broker.json");
  if (!in) throw std::runtime_error("queue: no broker metadata in " + dir);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const Json meta = Json::parse(text);

  // Load into existing Topic objects where possible: Topic& references
  // handed out before the load stay valid (see the header's lock-discipline
  // note). Topics only in memory are kept untouched.
  for (const Json& t : meta.at("topics").as_array()) {
    const std::string& name = t.at("name").as_string();
    const int parts = static_cast<int>(t.at("partitions").as_int());
    auto it = topics_.find(name);
    if (it == topics_.end()) {
      it = topics_.emplace(name, std::make_unique<Topic>(name, parts)).first;
      if (fault_ != nullptr) it->second->set_fault_injector(fault_.get());
    } else if (it->second->num_partitions() != parts) {
      throw std::invalid_argument(
          "queue: persisted topic '" + name +
          "' has a different partition count than the live one");
    }
    for (int p = 0; p < parts; ++p) {
      it->second->partition(p).load(dir + "/" + name + "." +
                                    std::to_string(p) + ".log");
    }
  }

  offsets_.clear();
  for (const Json& o : meta.at("offsets").as_array()) {
    offsets_[std::make_tuple(o.at("group").as_string(),
                             o.at("topic").as_string(),
                             static_cast<int>(o.at("partition").as_int()))] =
        static_cast<std::uint64_t>(o.at("offset").as_int());
  }
}

void Broker::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  const std::lock_guard lock(mutex_);
  fault_ = std::move(injector);
  for (auto& [name, topic] : topics_) {
    topic->set_fault_injector(fault_.get());
  }
}

}  // namespace horus::queue

