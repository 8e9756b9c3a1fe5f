#include "registry_delta.h"

#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"

namespace perfbench {

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot snapshot;
  std::istringstream text(horus::obs::Registry::global().expose_text());
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    snapshot.series_[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return snapshot;
}

double RegistrySnapshot::sum(std::string_view metric,
                             std::string_view label_filter) const {
  double total = 0.0;
  for (auto it = series_.lower_bound(metric); it != series_.end(); ++it) {
    const std::string_view name = it->first;
    if (name.substr(0, metric.size()) != metric) break;
    const std::string_view rest = name.substr(metric.size());
    if (!rest.empty() && rest.front() != '{') continue;  // longer metric name
    if (!label_filter.empty() && rest.find(label_filter) == std::string::npos) {
      continue;
    }
    total += it->second;
  }
  return total;
}

RegistrySnapshot RegistrySnapshot::delta(const RegistrySnapshot& earlier,
                                         const RegistrySnapshot& later) {
  RegistrySnapshot out;
  for (const auto& [name, value] : later.series_) {
    const auto it = earlier.series_.find(name);
    out.series_[name] = value - (it == earlier.series_.end() ? 0.0 : it->second);
  }
  return out;
}

}  // namespace perfbench
