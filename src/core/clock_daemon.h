// ClockDaemon — online logical-time maintenance for live monitoring.
//
// The paper notes that short flush intervals make data "more quickly
// available for querying (which is useful for online monitoring)". The
// daemon completes that story: it runs the incremental clock assignment
// over a graph that the pipeline is still writing, and serves thread-safe
// causal queries over the portion assigned so far.
//
// When it ticks: notify() asks for a tick, and the pipeline's commit hook
// calls it after every inter-stage commit (HorusService wires it), so a
// causal pair is clocked as soon as it is stored. Notifications coalesce
// into at most one pending tick. Options::interval_ms is only the idle
// backstop: without notifications the daemon still ticks that often.
// Intra-stage commits do not wake it: they store nodes whose causal edges
// are still in flight, and clocking those nodes early would only mean
// healing them once the edges land.
//
// What a tick costs: O(new nodes + new edges). assign() resumes at the
// first unassigned node. The audit then checks what changed since the last
// tick and nothing else: the edges in the store's edge log (attached for
// the daemon's lifetime, see GraphStore::attach_edge_log), each once. A
// logged edge whose source has no clocks yet (stored after assign() took
// its count) is carried and audited by the tick that clocks its source —
// the next one, so the carry list stays bounded. One audit of every edge
// runs after restore_clocks() (the restored table may predate edges of the
// restored graph) and whenever the edge log overflowed.
//
// Why there is an audit: incremental assignment is exact only when every
// edge into the events being assigned is already stored (the flush-horizon
// discipline). The inter stage stores a causal edge after the intra stage
// stored its endpoints, so an assigned event can still gain an in-edge. The
// audit finds each edge between assigned events whose Lamport or
// vector-clock order is violated; repair() recomputes the forward closure
// of their heads in place; the audit then re-checks those edges plus any
// logged meanwhile. Only when three repairs in a row leave a violation does
// the tick recompute every clock (reassign_all()).
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
    /// Longest wait between ticks when no notify() arrives.
    int interval_ms = 100;
  };

  /// Attaches the store's edge log for the daemon's lifetime.
  explicit ClockDaemon(ExecutionGraph& graph)
      : ClockDaemon(graph, Options{}) {}
  ClockDaemon(ExecutionGraph& graph, Options options);
  ~ClockDaemon();

  ClockDaemon(const ClockDaemon&) = delete;
  ClockDaemon& operator=(const ClockDaemon&) = delete;

  /// Starts the background thread.
  void start();

  /// Stops the background thread (runs one final tick).
  void stop();

  /// Asks the background thread for a tick (thread-safe, cheap; the
  /// pipeline's commit hook). Calls arriving before the thread wakes
  /// coalesce into one tick.
  void notify();

  /// Runs one pass now: incremental assign, then the audit of new edges
  /// with targeted repair (or a full recompute, see the file comment).
  /// Returns nodes assigned.
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
  /// from the table itself. Clears the edge log; the next tick audits every
  /// edge.
  void restore_clocks(ClockTable table);

  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_.load(); }
  [[nodiscard]] std::uint64_t heals() const noexcept { return heals_.load(); }
  [[nodiscard]] std::size_t assigned_nodes() const;

 private:
  /// What started a tick: the `trigger` label of horus_clock_ticks_total.
  enum class Trigger { kCommit, kTimer, kManual };
  using EdgeList = std::vector<graph::EdgeEnds>;

  std::size_t tick(Trigger trigger);

  /// True when both ends are assigned and the edge violates the Lamport or
  /// vector-clock order (a stale incremental assignment).
  [[nodiscard]] bool violated_locked(graph::NodeId from,
                                     graph::NodeId to) const;
  /// Appends the violated edges of `edges` to `stale`.
  void audit_edges_locked(const EdgeList& edges, EdgeList& stale);
  /// Audits the edges of `edges` whose source has clocks, moves the rest to
  /// the carry list, and empties `edges`.
  void audit_or_carry_locked(EdgeList& edges, EdgeList& stale);
  /// Audits the carried edges and those logged since the last drain, or
  /// every edge when the log overflowed or a full audit is pending.
  void audit_logged_locked(EdgeList& stale);
  /// Sets the assigned/unassigned/arena gauges from the current state.
  void publish_gauges_locked() const;

  ExecutionGraph& graph_;
  Options options_;

  mutable std::shared_mutex mutex_;
  LogicalClockAssigner assigner_;
  std::size_t assigned_ = 0;
  bool full_audit_pending_ = false;  ///< set by restore_clocks()
  EdgeList logged_;                  ///< drain buffer, reused across ticks
  EdgeList carried_;  ///< logged edges whose source had no clocks yet

  /// Tick loop, spawned through the shared ThreadPool's service facility
  /// (see thread_pool.h).
  ThreadPool::ServiceThread worker_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool notified_ = false;  ///< guarded by wake_mutex_
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> heals_{0};
};

}  // namespace horus
