#include "checks.h"

#include <algorithm>
#include <deque>
#include <map>

#include "common/rng.h"
#include "core/horus.h"

namespace perfbench {

using horus::graph::NodeId;

Reference build_reference(const std::vector<horus::Event>& events,
                          std::uint64_t seed) {
  horus::Horus batch;
  for (const horus::Event& event : events) batch.ingest(event);
  batch.seal();

  Reference reference;
  reference.nodes = batch.graph().event_count();
  reference.edges = batch.graph().store().edge_count();
  // Mostly nearby pairs (where happens-before is decided by a few hops) and
  // some far ones, in both orders.
  horus::Rng rng(seed ^ 0x51A7E5EEDULL);
  const auto n = static_cast<std::int64_t>(events.size());
  for (int k = 0; k < 2000 && n > 1; ++k) {
    const std::int64_t i = rng.uniform(0, n - 1);
    std::int64_t j = k % 4 == 0 ? rng.uniform(0, n - 1)
                                : std::min(n - 1, i + rng.uniform(1, 400));
    if (j == i) j = (i + 1) % n;
    auto a = events[static_cast<std::size_t>(i)].id;
    auto b = events[static_cast<std::size_t>(j)].id;
    if (rng.chance(0.5)) std::swap(a, b);
    const bool hb = batch.clocks().happens_before(*batch.node_of(a),
                                                  *batch.node_of(b));
    reference.q1.emplace_back(a, b, hb);
  }
  return reference;
}

void check_against_reference(const Reference& reference,
                             const horus::ExecutionGraph& graph,
                             const horus::ClockTable& clocks,
                             const std::string& label, Tally& tally) {
  const std::size_t nodes = graph.event_count();
  tally.check(nodes == reference.nodes,
              label + ": node count " + std::to_string(nodes) + " != batch " +
                  std::to_string(reference.nodes));
  const std::size_t edges = graph.store().edge_count();
  tally.check(edges == reference.edges,
              label + ": edge count " + std::to_string(edges) + " != batch " +
                  std::to_string(reference.edges));
  std::size_t unassigned = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(nodes); ++v) {
    if (!clocks.assigned(v)) ++unassigned;
  }
  tally.check(unassigned == 0,
              label + ": " + std::to_string(unassigned) + " nodes without clocks");
  std::size_t wrong = 0;
  for (const auto& [a, b, expected] : reference.q1) {
    const auto na = graph.node_of(a);
    const auto nb = graph.node_of(b);
    if (!na || !nb || clocks.happens_before(*na, *nb) != expected) ++wrong;
  }
  tally.check(wrong == 0, label + ": " + std::to_string(wrong) + " of " +
                              std::to_string(reference.q1.size()) +
                              " sampled Q1 answers differ from batch");
}

std::size_t expected_edges(const std::vector<horus::Event>& events) {
  std::map<std::string, std::size_t> per_timeline;
  std::size_t receives = 0;
  for (const horus::Event& event : events) {
    ++per_timeline[horus::timeline_key(event,
                                       horus::TimelineGranularity::kProcess)];
    if (event.type == horus::EventType::kRcv) ++receives;
  }
  std::size_t edges = receives;
  for (const auto& [timeline, count] : per_timeline) edges += count - 1;
  return edges;
}

Oracle::Oracle(const horus::graph::GraphStore& store) {
  const auto n = static_cast<NodeId>(store.node_count());
  out_begin_.assign(n + 1, 0);
  in_begin_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const horus::graph::Edge& e : store.out_edges_snapshot(v)) {
      out_.push_back(e.to);
    }
    out_begin_[v + 1] = static_cast<std::uint32_t>(out_.size());
    for (const horus::graph::Edge& e : store.in_edges_snapshot(v)) {
      in_.push_back(e.to);
    }
    in_begin_[v + 1] = static_cast<std::uint32_t>(in_.size());
  }
  // Kahn's algorithm: a node's number is one more than its largest
  // predecessor's.
  std::vector<std::uint32_t> pending(n);
  std::vector<NodeId> ready;
  lamport_.assign(n, 1);
  for (NodeId v = 0; v < n; ++v) {
    pending[v] = in_begin_[v + 1] - in_begin_[v];
    if (pending[v] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    for (std::uint32_t k = out_begin_[v]; k < out_begin_[v + 1]; ++k) {
      const NodeId w = out_[k];
      lamport_[w] = std::max(lamport_[w], lamport_[v] + 1);
      if (--pending[w] == 0) ready.push_back(w);
    }
  }
}

std::vector<char> Oracle::flood(NodeId from, bool forward, std::int64_t lo,
                                std::int64_t hi) const {
  const auto& begin = forward ? out_begin_ : in_begin_;
  const auto& adjacency = forward ? out_ : in_;
  std::vector<char> seen(lamport_.size(), 0);
  std::deque<NodeId> frontier{from};
  seen[from] = 1;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    for (std::uint32_t k = begin[v]; k < begin[v + 1]; ++k) {
      const NodeId w = adjacency[k];
      if (seen[w] != 0 || lamport_[w] < lo || lamport_[w] > hi) continue;
      seen[w] = 1;
      frontier.push_back(w);
    }
  }
  return seen;
}

bool Oracle::reaches(NodeId a, NodeId b) const {
  if (a == b || lamport_[a] >= lamport_[b]) return false;
  return flood(a, /*forward=*/true, lamport_[a], lamport_[b])[b] != 0;
}

std::vector<NodeId> Oracle::between(NodeId a, NodeId b) const {
  const std::vector<char> down = flood(a, true, lamport_[a], lamport_[b]);
  const std::vector<char> up = flood(b, false, lamport_[a], lamport_[b]);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < static_cast<NodeId>(down.size()); ++v) {
    if (down[v] != 0 && up[v] != 0) nodes.push_back(v);
  }
  return nodes;
}

std::size_t Oracle::count_lamport(std::int64_t lo, std::int64_t hi) const {
  return static_cast<std::size_t>(std::count_if(
      lamport_.begin(), lamport_.end(),
      [&](std::int64_t l) { return l >= lo && l < hi; }));
}

}  // namespace perfbench
