// Output checks. Any failure marks the run incorrect (Tally::check).
//
// online: the daemon's graph must equal what the batch Horus facade
// builds from the same events — node count, edge count and a seeded sample
// of Q1 answers — and every node must have clocks.
//
// analyze: answers are compared with a benchmark-side oracle built over
// GraphStore::out_edges_snapshot/in_edges_snapshot: Q1 against BFS
// reachability, Q2 against descendants(a) ∩ ancestors(b), and row counts
// against counts taken from the generated events.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "bench.h"
#include "core/execution_graph.h"
#include "core/logical_clocks.h"

namespace perfbench {

/// What the batch facade derives from a workload's events.
struct Reference {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  /// (a, b, a happens-before b) over event ids.
  std::vector<std::tuple<horus::EventId, horus::EventId, bool>> q1;
};

[[nodiscard]] Reference build_reference(const std::vector<horus::Event>& events,
                                        std::uint64_t seed);

/// Compares a finished graph and its clocks with the reference.
void check_against_reference(const Reference& reference,
                             const horus::ExecutionGraph& graph,
                             const horus::ClockTable& clocks,
                             const std::string& label, Tally& tally);

/// Edge count implied by the generated events alone: one program-order
/// edge between consecutive events of a timeline, plus one causal edge per
/// received message (the generator receives each delivered message once).
[[nodiscard]] std::size_t expected_edges(const std::vector<horus::Event>& events);

/// Reachability oracle over a quiesced graph, independent of the clock
/// assigner: adjacency copied through the snapshot accessors, and its own
/// Lamport numbering (longest path from a root, roots at 1) used only to
/// bound the searches.
class Oracle {
 public:
  explicit Oracle(const horus::graph::GraphStore& store);

  [[nodiscard]] std::int64_t lamport(horus::graph::NodeId node) const {
    return lamport_[node];
  }
  /// a happens-before b: b is reachable from a by a non-empty path.
  [[nodiscard]] bool reaches(horus::graph::NodeId a,
                             horus::graph::NodeId b) const;
  /// Descendants of a (inclusive) ∩ ancestors of b (inclusive), sorted.
  [[nodiscard]] std::vector<horus::graph::NodeId> between(
      horus::graph::NodeId a, horus::graph::NodeId b) const;
  /// Nodes with lamport in [lo, hi).
  [[nodiscard]] std::size_t count_lamport(std::int64_t lo,
                                          std::int64_t hi) const;

 private:
  [[nodiscard]] std::vector<char> flood(horus::graph::NodeId from, bool forward,
                                        std::int64_t lo, std::int64_t hi) const;

  std::vector<std::uint32_t> out_begin_, out_;
  std::vector<std::uint32_t> in_begin_, in_;
  std::vector<std::int64_t> lamport_;
};

}  // namespace perfbench
