// Glue between the core clock machinery and the graph-layer SegmentManager.
//
// src/graph must not depend on src/core, so SegmentManager takes its clock
// data through the graph::ClockLookup function type. This header provides
// the adapter over a ClockTable plus two convenience entry points used by
// everything that owns both halves (Horus facade, ClockDaemon, service):
// enabling segmentation on an ExecutionGraph with the schema's summarised
// keys pre-resolved, and refreshing the VC summaries after an assignment
// pass.
#pragma once

#include "core/execution_graph.h"
#include "core/logical_clocks.h"
#include "graph/segment.h"

namespace horus {

/// ClockLookup view over a ClockTable. The table must outlive the returned
/// function and must not be concurrently reassigned while summaries build
/// (callers run it after a tick/seal, which holds the relevant lock), so
/// the produced arena span stays valid while the summary builder reads it.
[[nodiscard]] inline graph::ClockLookup segment_clock_lookup(
    const ClockTable& clocks) {
  return [&clocks](graph::NodeId node, std::int32_t& timeline,
                   std::int32_t& position,
                   std::span<const std::int32_t>& vc) {
    if (!clocks.assigned(node)) return false;
    timeline = clocks.timeline_of(node);
    position = clocks.position(node);
    vc = clocks.vc_span(node);
    return timeline >= 0 && position > 0;
  };
}

/// Enables segmented storage on an execution graph, wiring the summarised
/// integer keys (lamportLogicalTime, timestamp) from the resolved schema.
inline graph::SegmentManager& enable_segments(ExecutionGraph& graph,
                                              graph::SegmentOptions options) {
  options.lamport_key = graph.keys().lamport;
  options.timestamp_key = graph.keys().timestamp;
  return graph.store().enable_segments(options);
}

/// Refreshes stale VC summaries from `clocks` (no-op when the store is not
/// segmented). `force` rebuilds fresh ones too — used after a heal, where
/// every clock may have changed without any store write. Returns summaries
/// rebuilt.
inline std::size_t update_segment_summaries(graph::GraphStore& store,
                                            const ClockTable& clocks,
                                            bool force = false,
                                            ThreadPool* pool = nullptr,
                                            unsigned threads = 1) {
  graph::SegmentManager* segments = store.segments();
  if (segments == nullptr) return 0;
  return segments->update_summaries(segment_clock_lookup(clocks), force, pool,
                                    threads);
}

}  // namespace horus
