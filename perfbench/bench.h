// Shared declarations of the repo benchmark (see README.md).
//
// One process runs one workload (online or analyze) for one seed,
// either untraced (end-to-end metrics) or traced (per-layer metrics), and
// prints a JSON result as its last stdout line. Everything here drives the
// Horus libraries through their public headers only.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "event/event.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Keeps a computed value observable so the optimizer cannot drop the call
/// that produced it.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Per-layer metrics: R staged replay, C span around a workload call,
  /// O src/obs registry delta, P obs::QueryProfile (README.md).
  std::string source;
};

/// Operation accounting shared by every thread of a run: attempted and
/// failed operations (overload rejections, truncated results, drain
/// timeouts, failed output checks) and the verdict of the output checks.
class Tally {
 public:
  void attempt(std::uint64_t n = 1) noexcept {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Records one failed operation (already counted by attempt()).
  void fail(const std::string& why);
  /// One output check: counts an attempt, and on failure a failed operation
  /// that also makes the run incorrect.
  bool check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const noexcept {
    return attempted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool correct() const noexcept {
    return correct_.load(std::memory_order_relaxed);
  }
  /// Distinct failure reasons with their counts, for the report.
  [[nodiscard]] std::vector<std::string> reasons() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<bool> correct_{true};
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::uint64_t>> reasons_;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run data directory (created by main, removed at exit).
  std::string work_dir;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_path;
  /// Self-test scale: tiny inputs, same code paths.
  bool tiny = false;
  /// Self-test fault: the online publisher skips this event index (-1 = none).
  std::int64_t drop_event = -1;
};

/// Nearest-rank percentile (p in [0,1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// The 95th percentile of a stationary loop's per-batch mean times: what
/// the code costs while other tenants contend for the host. On the shared
/// 4-vCPU hosts this benchmark was sized on, Horus's query code ran at two
/// speeds about 2x apart (a plain arithmetic loop did not), switching
/// within milliseconds, and the share of time at the fast speed changed
/// from run to run, so a run's median followed that share. The slow speed
/// was the steadier of the two, and few runs spend less than a twentieth of
/// their batches at it, so this figure moves when the code's cost moves and
/// little otherwise.
[[nodiscard]] double batch_p95(std::vector<double> batch_means);
/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();
/// Total bytes of the regular files under `path` (a file or a directory).
[[nodiscard]] std::uint64_t disk_bytes(const std::string& path);

/// The generated service mesh every workload feeds: `services` services,
/// RPC trees of depth 3 and fan-out 2, 5% retry storms, produced by
/// gen::ContinuousTraffic from `seed` and cut at exactly `count` events.
struct MeshSpec {
  int services = 8;
  std::size_t events = 0;
  std::uint64_t seed = 1;
};
[[nodiscard]] std::vector<horus::Event> generate_mesh(const MeshSpec& spec);

/// Ids of the frontend's request-entry LOG events, in generation order.
[[nodiscard]] std::vector<horus::EventId> request_entries(
    const std::vector<horus::Event>& events);

/// Workload parameters printed into the run context.
struct Params {
  std::vector<std::pair<std::string, std::string>> entries;
  void add(const std::string& key, double value);
  void add(const std::string& key, const std::string& value);
};

/// What a workload reports: the metrics of the result line (end-to-end or
/// per-layer, as BENCHMARK.json lists them) and diagnostics printed only.
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> extras;
};

using Workload =
    std::function<Report(const RunConfig&, Tally&, Params&)>;
Report run_online(const RunConfig& config, Tally& tally, Params& params);
Report run_analyze(const RunConfig& config, Tally& tally, Params& params);

/// Self-test of the benchmark itself; returns the process exit code.
int run_self_test(const std::string& work_root);

}  // namespace perfbench
