// horusd as the online workload runs it: ServiceOptions defaults
// except the data directory, one intra and one inter worker, and the
// 10 ms / 15 ms flush cadence `horus serve` sets.
#pragma once

#include <memory>
#include <string>

#include "bench.h"
#include "core/execution_graph.h"
#include "queries.h"
#include "queue/broker.h"
#include "report.h"
#include "service/service.h"

namespace perfbench {

[[nodiscard]] horus::service::ServiceOptions daemon_options(
    const std::string& data_dir);

/// One daemon with the broker and graph it owns. Construction plus the cold
/// start() is what `setup_s` measures.
struct Daemon {
  explicit Daemon(const std::string& data_dir);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// True once `id` has a node and the clock daemon has assigned it.
  [[nodiscard]] bool visible(horus::EventId id) const;
  /// Waits until `nodes` events are stored and all of them have clocks.
  [[nodiscard]] bool wait_assigned(std::size_t nodes, double timeout_s) const;
  /// Waits for `n` clock ticks that start after this call.
  [[nodiscard]] bool wait_ticks(int n, double timeout_s) const;
  /// Waits until the overload controller is back at level 0.
  [[nodiscard]] bool wait_calm(double timeout_s) const;

  horus::queue::Broker broker;
  horus::ExecutionGraph graph;
  std::unique_ptr<horus::service::HorusService> service;
  std::string data_dir;
  double setup_s = 0.0;
};

/// Query latencies measured against a drained daemon, as per-round (batch)
/// means: Q1, Q2 and MATCH through the service API under admit(), and CALL.
struct ServiceQueryTimes {
  std::vector<double> q1_ns;  ///< ns per happens_before call, per batch
  std::vector<double> q2_ms, match_ms, call_ms;
};

/// Waits for the overload level to settle, then for `seconds` runs Q1
/// batches, Q2, single-MATCH and Fig. 4a-shaped CALL queries against the
/// daemon's graph, appending latencies to `times`. CALL needs the horus.*
/// procedures, which the service does not register, so it runs through a
/// QueryEngine over the daemon's graph inside ClockDaemon::with_clocks —
/// what an embedding application would do.
void service_queries(Daemon& daemon, const QuerySampler& sampler,
                     std::uint64_t seed, double seconds, Tally& tally,
                     ServiceQueryTimes& times);

/// How long the untraced online workload queries each drained daemon (after
/// every phase, so the samples spread over the run).
inline constexpr double kQueryProbeSeconds = 1.2;
inline constexpr double kTinyQueryProbeSeconds = 0.05;

/// Traced-run measurements on a drained daemon: the query breakdown, the
/// clock bytes per event, and a snapshot of the graph that is then loaded
/// and clocked again (graph.load_s, core.clock.assign_s).
void measure_daemon_layers(Daemon& daemon, const QuerySampler& sampler,
                           const RunConfig& config, Tally& tally,
                           SpanRecorder& spans, Layers& layers);

}  // namespace perfbench
