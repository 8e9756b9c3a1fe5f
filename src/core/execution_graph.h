// ExecutionGraph: the causal graph of one distributed execution, stored in
// the embedded property-graph database.
//
// Nodes are events (labelled with their event type, so queries can match
// (x:SND {...}) like the paper's Cypher), edges are happens-before
// relations: "NEXT" for intra-process program order, "HB" for inter-process
// causal pairs. The wrapper maintains the EventId -> NodeId mapping and
// declares the indexes the Horus query strategy depends on (notably the
// ordered index on lamportLogicalTime).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "event/event.h"
#include "graph/graph_store.h"

namespace horus {

/// Edge type names in the stored graph.
inline constexpr std::string_view kIntraEdgeType = "NEXT";
inline constexpr std::string_view kInterEdgeType = "HB";

/// Property keys (matching the paper's query vocabulary where it is shown).
inline constexpr std::string_view kPropEventId = "eventId";
inline constexpr std::string_view kPropHost = "host";        // service name
inline constexpr std::string_view kPropThread = "thread";    // host/pid.tid
inline constexpr std::string_view kPropTimeline = "timeline";  // process key
inline constexpr std::string_view kPropTimestamp = "timestamp";
inline constexpr std::string_view kPropMessage = "message";  // LOG only
inline constexpr std::string_view kPropLamport = "lamportLogicalTime";
inline constexpr std::string_view kPropEventType = "eventType";

/// The execution-graph schema, resolved to store PropKeyIds once at
/// construction. Hot paths (clock assignment, causal queries, exports) use
/// these ids instead of re-hashing key strings per node.
struct ExecutionGraphKeys {
  graph::PropKeyId event_id = graph::kNoPropKey;
  graph::PropKeyId host = graph::kNoPropKey;
  graph::PropKeyId thread = graph::kNoPropKey;
  graph::PropKeyId timeline = graph::kNoPropKey;
  graph::PropKeyId timestamp = graph::kNoPropKey;
  graph::PropKeyId message = graph::kNoPropKey;
  graph::PropKeyId lamport = graph::kNoPropKey;
  graph::PropKeyId event_type = graph::kNoPropKey;
  graph::PropKeyId logger = graph::kNoPropKey;
  graph::PropKeyId src = graph::kNoPropKey;
  graph::PropKeyId dst = graph::kNoPropKey;
  graph::PropKeyId offset = graph::kNoPropKey;
  graph::PropKeyId size = graph::kNoPropKey;
  graph::PropKeyId child_thread = graph::kNoPropKey;
  graph::PropKeyId path = graph::kNoPropKey;
};

/// The unit of program order. The paper builds *process* timelines (96 for
/// the 20k-event TrainTicket trace; a process's threads share its host's
/// monotonic clock, so ordering them by timestamp is well-defined). Thread
/// granularity is stricter: no ordering is assumed between sibling threads.
enum class TimelineGranularity { kProcess, kThread };

/// The timeline key of an event under a granularity choice.
[[nodiscard]] std::string timeline_key(const Event& event,
                                       TimelineGranularity granularity);

class ExecutionGraph {
 public:
  ExecutionGraph();

  ExecutionGraph(const ExecutionGraph&) = delete;
  ExecutionGraph& operator=(const ExecutionGraph&) = delete;

  /// Persists an event as a graph node (idempotent per EventId).
  /// @param timeline the timeline key assigned by the intra-process encoder
  ///        (stored as the `timeline` property the clock assigner groups by).
  /// @param after the event's persisted program-order predecessor, if any:
  ///        the NEXT edge after -> event is then written with the node,
  ///        under one store write lock (GraphStore::add_node_after), so a
  ///        concurrent reader never sees the node off its chain.
  graph::NodeId add_event(const Event& event, const std::string& timeline,
                          std::optional<EventId> after = std::nullopt);

  /// Program-order edge between two already-persisted events. Idempotent
  /// per (from, to): a crashed-and-restarted encoder replaying a window of
  /// the queue may re-derive edges it already stored, and must not grow the
  /// graph doing so (GraphStore::add_edge_if_absent checks the source's
  /// out-list under the store's write lock).
  void add_intra_edge(EventId from, EventId to);

  /// Inter-process causal edge (stored as an edge of type "HB"). Idempotent
  /// per (from, to), independently of any NEXT edge between the same pair —
  /// the same two events can legitimately carry both (e.g. CREATE -> START
  /// within one process timeline).
  void add_inter_edge(EventId from, EventId to);

  /// Node lookup; std::nullopt when the event was never persisted.
  [[nodiscard]] std::optional<graph::NodeId> node_of(EventId id) const;

  /// The latest persisted event of a timeline (by timestamp, event id as
  /// tiebreaker). A restarted intra-process encoder recovers its chain tail
  /// from here, so program-order edges survive encoder crashes.
  struct TimelineTail {
    EventId id = kInvalidEventId;
    TimeNs timestamp = 0;
  };
  [[nodiscard]] std::optional<TimelineTail> timeline_tail(
      const std::string& timeline) const;

  /// Inverse lookup via the eventId node property.
  [[nodiscard]] EventId event_of(graph::NodeId node) const;

  [[nodiscard]] graph::GraphStore& store() noexcept { return store_; }
  [[nodiscard]] const graph::GraphStore& store() const noexcept {
    return store_;
  }

  /// Schema keys resolved at construction (stable for the store's lifetime).
  [[nodiscard]] const ExecutionGraphKeys& keys() const noexcept {
    return keys_;
  }

  [[nodiscard]] std::size_t event_count() const;

  /// Persists the stored execution (nodes, edges, properties — including
  /// assigned lamportLogicalTime) to a snapshot file.
  void save(const std::string& path) const;

  /// Loads a snapshot into this (empty) graph; indexes and the
  /// EventId -> NodeId map are rebuilt. Vector clocks are not stored in the
  /// snapshot — run a LogicalClockAssigner afterwards.
  void load(const std::string& path);

  /// Rebuilds the EventId -> NodeId map and the timeline tails from the
  /// store's eventId, timestamp and timeline columns, read once. For
  /// restore paths that populate the store directly (the segmented
  /// checkpoint loader) instead of going through load(); must only be
  /// called once, while this wrapper's own maps are still empty and before
  /// any writer runs.
  void reindex_loaded_store();

 private:
  /// Typed property bag for an event (hot write path — no string interning
  /// per event).
  [[nodiscard]] graph::PropertyList event_to_property_list(
      const Event& event) const;

  graph::GraphStore store_;
  ExecutionGraphKeys keys_;
  mutable std::mutex mutex_;
  std::unordered_map<EventId, graph::NodeId> node_by_event_;
  std::unordered_map<std::string, TimelineTail> tails_;
};

/// Converts an Event to the name-keyed node property bag persisted in the
/// store (cold path; the graph's internal write path uses the typed form).
[[nodiscard]] graph::PropertyMap event_to_properties(const Event& event);

}  // namespace horus
