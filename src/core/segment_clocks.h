// Glue between the execution-graph schema and the graph-layer
// SegmentManager: enabling segmentation on an ExecutionGraph with the
// schema's summarised keys (lamportLogicalTime, timestamp) pre-resolved.
#pragma once

#include "core/execution_graph.h"
#include "graph/segment.h"

namespace horus {

/// Enables segmented storage on an execution graph, wiring the summarised
/// integer keys (lamportLogicalTime, timestamp) from the resolved schema.
inline graph::SegmentManager& enable_segments(ExecutionGraph& graph,
                                              graph::SegmentOptions options) {
  options.lamport_key = graph.keys().lamport;
  options.timestamp_key = graph.keys().timestamp;
  return graph.store().enable_segments(options);
}

}  // namespace horus
