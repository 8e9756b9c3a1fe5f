// Chain-decomposition reachability index ("Causality is Graphically
// Simple"): the causal DAG of a distributed execution decomposes naturally
// into one chain per timeline — the intra encoder links consecutive events
// of a timeline with an explicit NEXT edge — plus the cross-timeline merge
// edges (HB pairs). Reachability from a fixed source is then fully described
// by one integer per chain:
//
//   fwd[t]  = the smallest position on timeline t reachable from a
//             (everything at or after it is reachable via the chain;
//              everything before it is not),
//   back[t] = the largest position on timeline t that reaches b.
//
// Both vectors are computed by a worklist relaxation that scans each merge
// edge at most once (per-timeline watermark pointers into position-sorted
// edge lists), so a full Q1/Q2 pruning oracle costs O(#merge-edges +
// #timelines) per query *endpoint pair* — independent of how many candidate
// nodes get tested afterwards, and without touching vector clocks at all.
// That makes the index an alternative pruning backend for Q2: the causal
// cut between a and b is exactly
//
//   { v : fwd[timeline(v)] <= pos(v) && pos(v) <= back[timeline(v)] }.
//
// The decomposition into per-timeline chains relies on one invariant:
// consecutive events of a timeline are connected by an intra edge
// (guaranteed by the intra-process encoder).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/execution_graph.h"
#include "core/logical_clocks.h"

namespace horus {

class ChainIndex {
 public:
  /// fwd[] value for "no event of this timeline is reachable".
  static constexpr std::int32_t kUnreachable =
      std::numeric_limits<std::int32_t>::max();

  /// Builds the merge-edge lists from the stored graph; `clocks` supplies
  /// the (timeline, position) chain coordinates, so every indexed node must
  /// already be assigned. Rebuild after new events are ingested (the index
  /// is a per-snapshot accelerator, not an incrementally maintained one).
  ChainIndex(const ExecutionGraph& graph, const ClockTable& clocks);

  /// fwd bounds of `a`: out[t] = smallest reachable position on timeline t,
  /// kUnreachable when none. out is resized to timeline_count().
  void forward_bounds(graph::NodeId a, std::vector<std::int32_t>& out) const;

  /// back bounds of `b`: out[t] = largest position on timeline t reaching b,
  /// 0 when none.
  void backward_bounds(graph::NodeId b, std::vector<std::int32_t>& out) const;

  /// Q1 via the chain decomposition (one forward relaxation, no clocks).
  [[nodiscard]] bool happens_before(graph::NodeId a, graph::NodeId b) const;

  [[nodiscard]] std::size_t timeline_count() const noexcept {
    return out_lists_.size();
  }
  [[nodiscard]] std::size_t merge_edge_count() const noexcept {
    return merge_edges_;
  }

 private:
  /// One cross-timeline merge edge in chain coordinates.
  struct MergeEdge {
    std::int32_t src_pos = 0;
    std::int32_t dst_tl = 0;
    std::int32_t dst_pos = 0;
  };
  struct MergeEdgeIn {
    std::int32_t dst_pos = 0;
    std::int32_t src_tl = 0;
    std::int32_t src_pos = 0;
  };

  const ClockTable& clocks_;
  /// Per source timeline, merge edges sorted ascending by src_pos: the
  /// reachable region of a chain is a position suffix, so the forward
  /// relaxation consumes each list from the back down to a watermark.
  std::vector<std::vector<MergeEdge>> out_lists_;
  /// Per destination timeline, merge edges sorted ascending by dst_pos (the
  /// co-reachable region is a prefix; consumed front-up).
  std::vector<std::vector<MergeEdgeIn>> in_lists_;
  std::size_t merge_edges_ = 0;
};

}  // namespace horus
