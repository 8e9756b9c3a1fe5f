// Horus — the embedded, single-process facade over the full system.
//
// For interactive analysis, tests and benches it is convenient to run the
// two-stage encoder pipeline synchronously, without brokers or threads:
//
//   Horus horus;
//   horus.ingest(event);        // any arrival order across processes
//   horus.seal();               // flush encoders + assign logical time
//   auto q = horus.query();
//   q.happens_before(a, b);
//   q.get_causal_graph(a, b);
//
// The distributed, multi-threaded deployment (Kafka-style queues between the
// stages, multiple encoder workers) lives in core/pipeline.h and produces an
// identical graph.
#pragma once

#include <memory>
#include <optional>

#include "core/causal_query.h"
#include "core/execution_graph.h"
#include "core/inter_encoder.h"
#include "core/intra_encoder.h"
#include "core/logical_clocks.h"
#include "event/event.h"

namespace horus {

class Horus {
 public:
  struct Options {
    TimelineGranularity granularity = TimelineGranularity::kProcess;
  };

  Horus() : Horus(Options{}) {}
  explicit Horus(Options options);

  Horus(const Horus&) = delete;
  Horus& operator=(const Horus&) = delete;

  /// Feeds one event into the processing pipeline.
  void ingest(Event event);

  /// Sink adapter for wiring into EventSinkFn-based producers.
  [[nodiscard]] EventSinkFn sink();

  /// Flushes both encoder stages (persisting buffered events and causal
  /// pairs) and incrementally assigns logical time to the new events.
  /// Safe to call repeatedly; cost scales with the events added since the
  /// previous call.
  void seal();

  [[nodiscard]] ExecutionGraph& graph() noexcept { return graph_; }
  [[nodiscard]] const ExecutionGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const ClockTable& clocks() const noexcept {
    return assigner_.clocks();
  }
  /// Causal query engine over the sealed graph. Pass QueryOptions{.threads}
  /// to fan Q2 out across the shared thread pool.
  [[nodiscard]] CausalQueryEngine query(QueryOptions options = {}) const {
    return CausalQueryEngine(graph_, assigner_.clocks(), options);
  }
  [[nodiscard]] IntraProcessEncoder& intra() noexcept { return intra_; }
  [[nodiscard]] InterProcessEncoder& inter() noexcept { return inter_; }

  /// Graph node of an ingested event.
  [[nodiscard]] std::optional<graph::NodeId> node_of(EventId id) const {
    return graph_.node_of(id);
  }

 private:
  ExecutionGraph graph_;
  InterProcessEncoder inter_;
  IntraProcessEncoder intra_;
  LogicalClockAssigner assigner_;
};

}  // namespace horus
