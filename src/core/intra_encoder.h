// Intra-Process HB Encoder — first stage of the Horus event-processing
// pipeline (Section IV-A of the paper).
//
// Maintains one *timeline* per process (here: per thread, the unit of
// program order). Incoming events are inserted into their timeline in
// timestamp order, so events that arrive out of order — multiple independent
// tracers on a host ship without synchronization — still produce a
// causally-consistent timeline, provided all tracers on a host share the
// same monotonic clock (the paper's stated requirement).
//
// On flush, buffered events are persisted as graph nodes, each written
// together with its "NEXT" (program-order) edge from the timeline's previous
// event, and forwarded downstream to the inter-process stage. The flush
// cadence is the tunable the paper discusses: long intervals = fewer
// database round trips but more memory and staler data; short intervals =
// the reverse. In the pipeline it is also the reorder window: an event that
// arrives after a later one of its timeline was flushed can no longer be
// placed in order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/execution_graph.h"
#include "event/event.h"

namespace horus {

class IntraProcessEncoder {
 public:
  struct Options {
    /// Paper default: one timeline per OS process (see kPropTimeline docs).
    TimelineGranularity granularity = TimelineGranularity::kProcess;
  };

  /// @param downstream receives events in final (per-timeline causal) order,
  ///        after their nodes are persisted — the feed of the inter-process
  ///        stage. May be empty.
  IntraProcessEncoder(ExecutionGraph& graph, EventSinkFn downstream)
      : IntraProcessEncoder(graph, std::move(downstream), Options{}) {}
  IntraProcessEncoder(ExecutionGraph& graph, EventSinkFn downstream,
                      Options options);

  /// Buffers one event into its process timeline (ordered insert).
  void on_event(Event event);

  /// Persists all buffered timeline segments and forwards them downstream.
  void flush();

  /// Number of buffered (not yet flushed) events.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// Number of events flushed so far.
  [[nodiscard]] std::uint64_t flushed() const noexcept { return flushed_; }

  /// Count of replayed/duplicated deliveries dropped by the id-based
  /// suppression (at-least-once queue semantics; inflated by crash replays
  /// and injected duplicates, never by first deliveries).
  [[nodiscard]] std::uint64_t duplicates_dropped() const noexcept {
    return duplicates_dropped_;
  }

  /// Count of events that arrived with a timestamp older than their
  /// timeline's already-flushed tail. Such events can no longer be placed in
  /// program order (the flush horizon passed them); Horus appends them after
  /// the tail and counts the anomaly. A non-zero value with a sane flush
  /// interval indicates a broken host clock.
  [[nodiscard]] std::uint64_t late_events() const noexcept { return late_; }

 private:
  struct Timeline {
    /// Buffered events sorted by (timestamp, id).
    std::vector<Event> buffer;
    /// Ids currently buffered (duplicate suppression for the queue's
    /// at-least-once delivery).
    std::unordered_set<EventId> buffered_ids;
    /// Last event persisted for this timeline (tail of the stored chain).
    std::optional<EventId> tail;
    TimeNs tail_timestamp = 0;
  };

  ExecutionGraph& graph_;
  EventSinkFn downstream_;
  Options options_;
  std::unordered_map<std::string, Timeline> timelines_;
  std::size_t pending_ = 0;
  std::uint64_t flushed_ = 0;
  std::uint64_t late_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
};

}  // namespace horus
