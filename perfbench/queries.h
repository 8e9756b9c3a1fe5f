// The queries every workload issues, generated from a seed over one graph's
// known events, and the traced query breakdown (per-layer query metrics).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/execution_graph.h"
#include "core/logical_clocks.h"
#include "spans.h"

namespace perfbench {

/// A single-MATCH text query and the parameters it was built from.
struct MatchQuery {
  enum Kind { kEventProbe = 0, kLamportRange = 1, kHostCount = 2 };
  Kind kind = kEventProbe;
  std::string text;
  horus::EventId id{};
  std::int64_t lo = 0;  ///< kLamportRange: [lo, lo + kLamportWidth)
  int service = 0;      ///< kHostCount
};

inline constexpr std::int64_t kLamportWidth = 4;

/// Seeded query generator over the events a graph was built from.
struct QuerySampler {
  std::vector<horus::EventId> entries;  ///< frontend request-entry LOG events
  std::vector<horus::EventId> ids;      ///< every event id
  int services = 8;
  /// Requests between the two endpoints of a Q2 or CALL query.
  int gap = 4;

  [[nodiscard]] std::pair<horus::EventId, horus::EventId> q2_pair(
      horus::Rng& rng) const;
  [[nodiscard]] MatchQuery match(int kind, horus::Rng& rng,
                                 std::int64_t max_lamport) const;
  /// Fig. 4a-shaped query: the LOG events of the causal graph between two
  /// request entries, in causal order, aggregated.
  [[nodiscard]] static std::string call_text(horus::EventId a,
                                             horus::EventId b);
};

/// A snapshot made queryable the way `horus query --graph` does it: load,
/// then assign clocks (writing lamportLogicalTime). Spans graph.load and
/// core.clock.assign go into `spans`.
struct LoadedGraph {
  std::unique_ptr<horus::ExecutionGraph> graph;
  std::unique_ptr<horus::LogicalClockAssigner> assigner;
  double load_s = 0;
  double assign_s = 0;
};
[[nodiscard]] LoadedGraph load_snapshot(const std::string& path,
                                        SpanRecorder& spans);

/// Largest Lamport time among assigned nodes.
[[nodiscard]] std::int64_t max_lamport(const horus::ExecutionGraph& graph,
                                       const horus::ClockTable& clocks);

/// Per-layer query and Q2 metrics of the traced run, gathered from spans
/// around parse/plan/execute calls and from obs::QueryProfile.
struct QueryBreakdown {
  double parse_us = 0, plan_us = 0, exec_us = 0;
  double rows_examined_per_row = 0;
  double call_clause_ms = 0;
  double q2_nodes = 0;
  double q2_p99_ms = 0;
  double prune_admit_ratio = 0;
  double vc_comparisons = 0;
};

/// Runs a fixed seeded mix of MATCH, CALL and Q2 queries against a quiesced
/// graph with profiles on, recording spans named query.parse, query.plan,
/// query.exec and core.causal.q2 into `spans` (which must be enabled and
/// must not hold other spans of those names). The caller keeps the clocks
/// stable (for a live daemon: calls inside ClockDaemon::with_clocks).
[[nodiscard]] QueryBreakdown query_breakdown(
    const horus::ExecutionGraph& graph, const horus::ClockTable& clocks,
    const QuerySampler& sampler, std::uint64_t seed, bool tiny, Tally& tally,
    SpanRecorder& spans);

}  // namespace perfbench
