#include "graph/traversal.h"

#include <algorithm>
#include <deque>

namespace horus::graph {

PathResult shortest_path(const GraphStore& g, NodeId from, NodeId to) {
  PathResult result;
  if (from == to) {
    result.path = {from};
    result.visited = 1;
    return result;
  }
  const std::size_t n = g.node_count();
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<bool> seen(n, false);
  std::deque<NodeId> frontier;
  frontier.push_back(from);
  seen[from] = true;
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    ++result.visited;
    for (const Edge& e : g.out_edges(cur)) {
      if (seen[e.to]) continue;
      seen[e.to] = true;
      parent[e.to] = cur;
      if (e.to == to) {
        // Reconstruct path.
        std::vector<NodeId> rev;
        for (NodeId v = to; v != kNoNode; v = parent[v]) rev.push_back(v);
        std::reverse(rev.begin(), rev.end());
        result.path = std::move(rev);
        return result;
      }
      frontier.push_back(e.to);
    }
  }
  return result;
}

namespace {

/// Iterative DFS enumerating all simple paths. Recursion is avoided because
/// path counts (and depths) can be large on dense HB graphs.
class AllPathsEnumerator {
 public:
  AllPathsEnumerator(const GraphStore& g, NodeId from, NodeId to,
                     AllPathsOptions options)
      : g_(g), to_(to), options_(options), on_path_(g.node_count(), false) {
    push(from);
  }

  AllPathsResult run() {
    AllPathsResult out;
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      const auto edges = g_.out_edges(f.node);
      if (f.node == to_) {
        emit(out);
        pop();
        continue;
      }
      if (f.next_edge >= edges.size()) {
        pop();
        continue;
      }
      const NodeId next = edges[f.next_edge++].to;
      if (on_path_[next]) continue;  // keep paths simple
      ++out.visited;
      if (options_.max_visited != 0 && out.visited >= options_.max_visited) {
        out.truncated = true;
        break;
      }
      if (options_.guard != nullptr && !options_.guard->admit_visited()) {
        out.truncated = true;
        break;
      }
      push(next);
      if (options_.max_paths != 0 && out.paths.size() >= options_.max_paths) {
        out.truncated = true;
        break;
      }
    }
    return out;
  }

 private:
  struct Frame {
    NodeId node;
    std::size_t next_edge = 0;
  };

  void push(NodeId node) {
    stack_.push_back(Frame{node});
    on_path_[node] = true;
    path_.push_back(node);
  }

  void pop() {
    on_path_[stack_.back().node] = false;
    stack_.pop_back();
    path_.pop_back();
  }

  void emit(AllPathsResult& out) { out.paths.push_back(path_); }

  const GraphStore& g_;
  NodeId to_;
  AllPathsOptions options_;
  std::vector<bool> on_path_;
  std::vector<Frame> stack_;
  std::vector<NodeId> path_;
};

}  // namespace

AllPathsResult all_paths(const GraphStore& g, NodeId from, NodeId to,
                         AllPathsOptions options) {
  return AllPathsEnumerator(g, from, to, options).run();
}

AllPathsResult all_paths_undirected(const GraphStore& g, NodeId from,
                                    NodeId to, AllPathsOptions options) {
  // Iterative DFS over the undirected view (out-edges followed by in-edges).
  AllPathsResult out;
  struct Frame {
    NodeId node;
    std::size_t next_edge = 0;  // indexes out-edges then in-edges
  };
  std::vector<bool> on_path(g.node_count(), false);
  std::vector<Frame> stack;
  std::vector<NodeId> path;

  auto push = [&](NodeId node) {
    stack.push_back(Frame{node});
    on_path[node] = true;
    path.push_back(node);
  };
  auto pop = [&] {
    on_path[stack.back().node] = false;
    stack.pop_back();
    path.pop_back();
  };

  push(from);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.node == to) {
      out.paths.push_back(path);
      if (options.max_paths != 0 && out.paths.size() >= options.max_paths) {
        out.truncated = true;
        break;
      }
      pop();
      continue;
    }
    const auto outs = g.out_edges(f.node);
    const auto ins = g.in_edges(f.node);
    if (f.next_edge >= outs.size() + ins.size()) {
      pop();
      continue;
    }
    const NodeId next = f.next_edge < outs.size()
                            ? outs[f.next_edge].to
                            : ins[f.next_edge - outs.size()].to;
    ++f.next_edge;
    if (on_path[next]) continue;
    ++out.visited;
    if (options.max_visited != 0 && out.visited >= options.max_visited) {
      out.truncated = true;
      break;
    }
    if (options.guard != nullptr && !options.guard->admit_visited()) {
      out.truncated = true;
      break;
    }
    push(next);
  }
  return out;
}

namespace {

/// DFS from `start` over out-edges (forward) or in-edges (backward), marking
/// reached nodes in `seen`; returns number of expansions.
std::size_t flood(const GraphStore& g, NodeId start, bool forward,
                  std::vector<bool>& seen) {
  std::size_t visited = 0;
  std::vector<NodeId> stack{start};
  seen[start] = true;
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    ++visited;
    const auto edges = forward ? g.out_edges(cur) : g.in_edges(cur);
    for (const Edge& e : edges) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        stack.push_back(e.to);
      }
    }
  }
  return visited;
}

}  // namespace

ReachResult reachable(const GraphStore& g, NodeId from, NodeId to) {
  ReachResult out;
  if (from == to) {
    out.reachable = true;
    out.visited = 1;
    return out;
  }
  std::vector<bool> seen(g.node_count(), false);
  std::vector<NodeId> stack{from};
  seen[from] = true;
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    ++out.visited;
    for (const Edge& e : g.out_edges(cur)) {
      if (e.to == to) {
        out.reachable = true;
        return out;
      }
      if (!seen[e.to]) {
        seen[e.to] = true;
        stack.push_back(e.to);
      }
    }
  }
  return out;
}

SubgraphResult between_subgraph(const GraphStore& g, NodeId from, NodeId to) {
  SubgraphResult out;
  const std::size_t n = g.node_count();
  std::vector<bool> fwd(n, false);
  std::vector<bool> bwd(n, false);
  out.visited += flood(g, from, /*forward=*/true, fwd);
  out.visited += flood(g, to, /*forward=*/false, bwd);
  for (NodeId v = 0; v < n; ++v) {
    if (fwd[v] && bwd[v]) out.nodes.push_back(v);
  }
  out.edges = induced_edges(g, out.nodes);
  return out;
}

std::vector<std::pair<NodeId, NodeId>> induced_edges(
    const GraphStore& g, const std::vector<NodeId>& nodes) {
  std::vector<bool> in_set(g.node_count(), false);
  for (const NodeId v : nodes) in_set[v] = true;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const NodeId v : nodes) {
    for (const Edge& e : g.out_edges(v)) {
      if (in_set[e.to]) edges.emplace_back(v, e.to);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

}  // namespace horus::graph
