// Built-in graph traversal algorithms — the *baseline* query strategies.
//
// These are deliberately faithful to what a graph database's generic path
// machinery does: breadth-first shortest path, exhaustive all-simple-paths
// enumeration, and plain reachability. They are oblivious to the semantics
// of the stored execution (no logical time, no DAG awareness), which is
// exactly the inefficiency the paper's Section V identifies and that the
// Horus logical-time approach (src/core/causal_query.*) removes.
//
// Every algorithm reports how many nodes it visited, so benches and tests
// can compare the explored frontier against Horus' pruned one (Figure 3 of
// the paper).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/query_guard.h"
#include "graph/graph_store.h"

namespace horus::graph {

struct PathResult {
  /// Node sequence from source to target inclusive; empty when no path.
  std::vector<NodeId> path;
  /// Nodes expanded during the search (instrumentation).
  std::size_t visited = 0;

  [[nodiscard]] bool found() const noexcept { return !path.empty(); }
};

/// Unweighted shortest path from `from` to `to` following out-edges (BFS).
/// This is the baseline for query Q1 ("may a causally affect b?").
[[nodiscard]] PathResult shortest_path(const GraphStore& g, NodeId from,
                                       NodeId to);

struct AllPathsResult {
  std::vector<std::vector<NodeId>> paths;
  std::size_t visited = 0;  ///< DFS expansions performed
  bool truncated = false;   ///< true if limits stopped the enumeration
};

struct AllPathsOptions {
  /// Hard cap on enumerated paths (0 = unlimited). Exhaustive enumeration is
  /// exponential — the paper's Fig. 8 measures exactly this blow-up — so
  /// benches may bound it to keep runs finite.
  std::size_t max_paths = 0;
  /// Hard cap on DFS expansions (0 = unlimited).
  std::size_t max_visited = 0;
  /// Optional shared query guard; expansions are charged to it and the
  /// enumeration stops (truncated = true) once it trips.
  QueryGuard* guard = nullptr;
};

/// Enumerates every simple directed path from `from` to `to` (DFS with an
/// on-path set). This is the baseline for query Q2 (causal paths between two
/// events).
[[nodiscard]] AllPathsResult all_paths(const GraphStore& g, NodeId from,
                                       NodeId to, AllPathsOptions options = {});

/// Enumerates every simple path from `from` to `to` *ignoring edge
/// direction* — the cost model of a naive variable-length graph-database
/// pattern like Cypher's `(a)-[*]-(b)`. On happens-before ladders this is
/// catastrophically exponential in the graph size (paths may detour through
/// the entire graph), which is the blow-up the paper's Figure 8 measures for
/// the built-in traversal baseline.
[[nodiscard]] AllPathsResult all_paths_undirected(
    const GraphStore& g, NodeId from, NodeId to, AllPathsOptions options = {});

struct ReachResult {
  bool reachable = false;
  std::size_t visited = 0;
};

/// Directed reachability via DFS.
[[nodiscard]] ReachResult reachable(const GraphStore& g, NodeId from,
                                    NodeId to);

/// The union of nodes lying on any path from `from` to `to`: the set
/// {v : from ⇝ v and v ⇝ to}, with its induced edges. Computed the
/// traversal way — forward DFS from `from` intersected with backward DFS
/// from `to`. Baseline counterpart of Horus' getCausalGraph, and its test
/// oracle: happens-before *is* reachability, so this answer uses no clock
/// and shares no code with the engine it checks.
struct SubgraphResult {
  std::vector<NodeId> nodes;  ///< sorted
  /// induced_edges(g, nodes): one (x, y) pair per stored edge x->y.
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::size_t visited = 0;
};

[[nodiscard]] SubgraphResult between_subgraph(const GraphStore& g, NodeId from,
                                              NodeId to);

/// Every out-edge x->y of `g` with both ends in `nodes` (in any order,
/// without duplicates), as sorted (x, y) pairs.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> induced_edges(
    const GraphStore& g, const std::vector<NodeId>& nodes);

}  // namespace horus::graph
