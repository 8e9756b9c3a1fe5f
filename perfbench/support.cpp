#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "gen/topology.h"

namespace perfbench {

namespace fs = std::filesystem;

void Tally::fail(const std::string& why) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard lock(mutex_);
  for (auto& [reason, count] : reasons_) {
    if (reason == why) {
      ++count;
      return;
    }
  }
  reasons_.emplace_back(why, 1);
}

bool Tally::check(bool ok, const std::string& what) {
  attempt();
  if (!ok) {
    correct_.store(false, std::memory_order_relaxed);
    fail("output check failed: " + what);
  }
  return ok;
}

std::vector<std::string> Tally::reasons() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [reason, count] : reasons_) {
    out.push_back(reason + " (x" + std::to_string(count) + ")");
  }
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double batch_p95(std::vector<double> batch_means) {
  return percentile(std::move(batch_means), 0.95);
}

double peak_rss_mib() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t disk_bytes(const std::string& path) {
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) return fs::file_size(path, ec);
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::vector<horus::Event> generate_mesh(const MeshSpec& spec) {
  horus::gen::TopologyOptions topo;
  topo.num_services = spec.services;
  topo.depth = 3;
  topo.fanout = 2;
  topo.retry_storm_p = 0.05;
  topo.seed = spec.seed;
  horus::gen::ContinuousTraffic traffic(topo);
  std::vector<horus::Event> events;
  events.reserve(spec.events);
  while (events.size() < spec.events) {
    for (horus::Event& event : traffic.next_batch()) {
      if (events.size() == spec.events) break;
      events.push_back(std::move(event));
    }
  }
  return events;
}

std::vector<horus::EventId> request_entries(
    const std::vector<horus::Event>& events) {
  // The frontend (service 0) logs "req <n> received" as the first event of
  // every request it handles.
  constexpr std::string_view kSuffix = " received";
  std::vector<horus::EventId> ids;
  for (const horus::Event& event : events) {
    const horus::LogPayload* log = event.log();
    if (log == nullptr || event.service != "svc0") continue;
    if (log->message.size() >= kSuffix.size() &&
        log->message.compare(log->message.size() - kSuffix.size(),
                             kSuffix.size(), kSuffix) == 0) {
      ids.push_back(event.id);
    }
  }
  return ids;
}

void Params::add(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  entries.emplace_back(key, buf);
}

void Params::add(const std::string& key, const std::string& value) {
  entries.emplace_back(key, value);
}

}  // namespace perfbench
