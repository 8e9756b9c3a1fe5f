// ClockDaemon — online logical-time maintenance for live monitoring.
//
// The paper notes that short flush intervals make data "more quickly
// available for querying (which is useful for online monitoring)". The
// daemon completes that story: it periodically runs the incremental clock
// assignment over a graph that the pipeline is still writing, and exposes
// thread-safe causal queries over the portion assigned so far.
//
// Incremental assignment is only exact when every edge incident to the
// events being assigned has already been persisted (the flush-horizon
// discipline). The pipeline flushes nodes (intra stage) and edges (inter
// stage) on independent timers, so a tick can race ahead of a causal pair:
// an event may receive an in-edge *after* its clocks were computed. The
// daemon therefore self-heals: each tick first audits every edge between
// assigned events (Lamport must strictly increase); on any violation it
// discards and recomputes all clocks. Audits are O(edges) — fine at
// monitoring cadence — and violations are rare (they need an inter flush to
// overtake two intra flushes).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/thread_pool.h"
#include "core/causal_query.h"
#include "core/execution_graph.h"
#include "core/logical_clocks.h"

namespace horus {

class ClockDaemon {
 public:
  struct Options {
    int interval_ms = 100;
  };

  explicit ClockDaemon(ExecutionGraph& graph)
      : ClockDaemon(graph, Options{}) {}
  ClockDaemon(ExecutionGraph& graph, Options options);
  ~ClockDaemon();

  ClockDaemon(const ClockDaemon&) = delete;
  ClockDaemon& operator=(const ClockDaemon&) = delete;

  /// Starts the periodic background thread.
  void start();

  /// Stops the background thread (runs one final tick).
  void stop();

  /// Runs one assignment pass now (audit + incremental assign, or full
  /// recompute after a detected violation). Returns nodes assigned.
  std::size_t tick();

  // -- thread-safe queries over the currently assigned portion -------------

  /// Q1 over assigned events; false when either event lacks clocks yet.
  [[nodiscard]] bool happens_before(graph::NodeId a, graph::NodeId b) const;

  /// Q2 over assigned events; empty when endpoints lack clocks yet.
  [[nodiscard]] CausalGraphResult get_causal_graph(graph::NodeId a,
                                                   graph::NodeId b,
                                                   bool only_logs = false) const;

  /// Q2 with explicit engine options (query guard, thread pool) — the
  /// service front-end routes admitted sessions through this overload so
  /// per-query limits apply to daemon-served traversals too.
  [[nodiscard]] CausalGraphResult get_causal_graph(
      graph::NodeId a, graph::NodeId b, const QueryOptions& options,
      bool only_logs = false) const;

  /// Runs `fn(const ClockTable&)` under the shared lock — a consistent view
  /// of the clocks without copying the table. Used by the checkpoint writer
  /// to serialize clock state atomically with respect to ticks.
  template <typename Fn>
  auto with_clocks(Fn&& fn) const {
    const std::shared_lock lock(mutex_);
    return fn(assigner_.clocks());
  }

  /// Replaces the daemon's clock state with a restored table (blocks ticks
  /// and queries for the duration). The assigned-node count is recomputed
  /// from the table itself.
  void restore_clocks(ClockTable table);

  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_.load(); }
  [[nodiscard]] std::uint64_t heals() const noexcept { return heals_.load(); }
  [[nodiscard]] std::size_t assigned_nodes() const;

 private:
  /// Heads of edges between assigned nodes that violate the Lamport or
  /// vector-clock invariant (stale incremental assignments); empty when the
  /// clocks are consistent. The heads seed the targeted repair pass.
  [[nodiscard]] std::vector<graph::NodeId> audit_locked() const;

  ExecutionGraph& graph_;
  Options options_;

  mutable std::shared_mutex mutex_;
  LogicalClockAssigner assigner_;
  std::size_t assigned_ = 0;

  /// Periodic tick loop, spawned through the shared ThreadPool's service
  /// facility (see thread_pool.h).
  ThreadPool::ServiceThread worker_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> heals_{0};
};

}  // namespace horus
