// The Q2 oracle of the differential suites: graph::between_subgraph(a, b),
// the reachability cut {v : a ⇝ v and v ⇝ b} with its induced edges.
// Happens-before *is* reachability, so the oracle reads no clock and shares
// no code with the engine it checks (the only-logs filter below is the
// procedure's contract, restated).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/causal_query.h"
#include "graph/traversal.h"

namespace horus {

/// Succeeds iff `got`, the engine's Q2 answer for (a, b), holds exactly the
/// cut's node set and induced edge set. Both are compared as sorted
/// vectors: the engine's own node order (Lamport, then id) is checked
/// separately. With `only_logs`, the cut keeps its endpoints and LOG nodes.
inline ::testing::AssertionResult MatchesReachabilityCut(
    const graph::GraphStore& store, const CausalGraphResult& got,
    graph::NodeId a, graph::NodeId b, bool only_logs = false) {
  graph::SubgraphResult want = graph::between_subgraph(store, a, b);
  if (only_logs) {
    std::erase_if(want.nodes, [&](graph::NodeId v) {
      return v != a && v != b && store.node_label(v) != "LOG";
    });
    want.edges = graph::induced_edges(store, want.nodes);
  }
  std::vector<graph::NodeId> nodes = got.nodes;
  std::sort(nodes.begin(), nodes.end());
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges = got.edges;
  std::sort(edges.begin(), edges.end());
  if (nodes != want.nodes) {
    return ::testing::AssertionFailure()
           << "Q2(" << a << ", " << b << ") has " << nodes.size()
           << " nodes, the reachability cut " << want.nodes.size();
  }
  if (edges != want.edges) {
    const auto cut_edge = std::mismatch(edges.begin(), edges.end(),
                                        want.edges.begin(), want.edges.end())
                              .second;
    ::testing::AssertionResult failure = ::testing::AssertionFailure();
    failure << "Q2(" << a << ", " << b << ") has " << edges.size()
            << " edges, the reachability cut " << want.edges.size();
    if (cut_edge != want.edges.end()) {
      failure << "; first cut edge missing or out of place: "
              << cut_edge->first << "->" << cut_edge->second;
    }
    return failure;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace horus
