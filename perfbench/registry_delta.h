// Reads the process-wide src/obs registry through its Prometheus text
// exposition, so the benchmark sees exactly what `horus stats` would show.
// Two snapshots bracket a phase; their difference is what the phase did.
#pragma once

#include <map>
#include <string>
#include <string_view>

namespace perfbench {

class RegistrySnapshot {
 public:
  /// Captures every series of obs::Registry::global() now.
  [[nodiscard]] static RegistrySnapshot take();

  /// Sum over every series named `metric` whose label set contains
  /// `label_filter` (e.g. `stage="intra"`; empty matches all).
  [[nodiscard]] double sum(std::string_view metric,
                           std::string_view label_filter = {}) const;

  /// `later` minus `earlier`, series by series.
  [[nodiscard]] static RegistrySnapshot delta(const RegistrySnapshot& earlier,
                                              const RegistrySnapshot& later);

 private:
  /// Series name (with its `{labels}`) -> value.
  std::map<std::string, double, std::less<>> series_;
};

}  // namespace perfbench
