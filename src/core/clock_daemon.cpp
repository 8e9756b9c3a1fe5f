#include "core/clock_daemon.h"

#include <chrono>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace horus {

namespace {

/// The daemon's instruments, resolved once and shared by every daemon in
/// the process (there is normally one; a second would aggregate into the
/// same series, which is the semantics wanted for process totals).
struct ClockMetrics {
  obs::Registry& registry = obs::Registry::global();
  obs::Histogram& tick_seconds = registry.histogram(
      "horus_clock_tick_seconds",
      "Logical-clock assignment pass latency (assign + audit + heal)");
  obs::Family<obs::Counter>& ticks =
      registry.counters("horus_clock_ticks_total",
                        "Assignment passes run, by what started them");
  obs::Counter& commit_ticks = ticks.with({{"trigger", "commit"}});
  obs::Counter& timer_ticks = ticks.with({{"trigger", "timer"}});
  obs::Counter& manual_ticks = ticks.with({{"trigger", "manual"}});
  obs::Counter& heals = registry.counter(
      "horus_clock_heals_total",
      "Repairs of violated edges, plus full recomputes after three failed "
      "repairs");
  obs::Counter& audited_edges = registry.counter(
      "horus_clock_audited_edges_total",
      "Edges the tick audits checked (new edges, not the whole graph)");
  obs::Gauge& assigned_nodes = registry.gauge(
      "horus_clock_assigned_nodes", "Nodes with logical clocks assigned");
  obs::Gauge& unassigned_nodes = registry.gauge(
      "horus_clock_unassigned_nodes",
      "Nodes stored without clocks as of the last tick");
  obs::Gauge& arena_bytes = registry.gauge(
      "horus_clock_vc_arena_bytes",
      "Resident bytes of the VC store (arena + slots)");
};

ClockMetrics& metrics() {
  static ClockMetrics m;
  return m;
}

}  // namespace

ClockDaemon::ClockDaemon(ExecutionGraph& graph, Options options)
    : graph_(graph), options_(options), assigner_(graph) {
  graph_.store().attach_edge_log();
}

ClockDaemon::~ClockDaemon() {
  if (running_.load()) stop();
  graph_.store().detach_edge_log();
}

void ClockDaemon::start() {
  if (running_.exchange(true)) return;
  stop_requested_.store(false);
  worker_ = ThreadPool::shared().spawn_service([this] {
    Trigger trigger = Trigger::kTimer;
    while (!stop_requested_.load(std::memory_order_acquire)) {
      tick(trigger);
      std::unique_lock lock(wake_mutex_);
      wake_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                     [this] {
                       return notified_ ||
                              stop_requested_.load(std::memory_order_acquire);
                     });
      trigger = notified_ ? Trigger::kCommit : Trigger::kTimer;
      notified_ = false;
    }
  });
}

void ClockDaemon::stop() {
  if (!running_.load()) return;
  {
    // Under the wake mutex, so the loop cannot miss it between its
    // predicate check and its wait.
    const std::lock_guard lock(wake_mutex_);
    stop_requested_.store(true, std::memory_order_release);
  }
  wake_.notify_all();
  worker_.join();
  running_.store(false);
  tick();  // pick up anything that landed after the last pass
}

void ClockDaemon::notify() {
  {
    const std::lock_guard lock(wake_mutex_);
    notified_ = true;
  }
  wake_.notify_one();
}

bool ClockDaemon::violated_locked(graph::NodeId from, graph::NodeId to) const {
  const ClockTable& clocks = assigner_.clocks();
  if (!clocks.assigned(from) || !clocks.assigned(to)) return false;
  // Both the Lamport and the full vector-clock invariant must hold on every
  // edge; a node assigned without one of its in-edges fails the VC check
  // even when the Lamport values happen to line up.
  return clocks.lamport(from) >= clocks.lamport(to) ||
         !clocks.vc_less(from, to);
}

void ClockDaemon::audit_edges_locked(const EdgeList& edges, EdgeList& stale) {
  for (const graph::EdgeEnds& e : edges) {
    if (violated_locked(e.from, e.to)) stale.push_back(e);
  }
  metrics().audited_edges.inc(edges.size());
}

void ClockDaemon::audit_or_carry_locked(EdgeList& edges, EdgeList& stale) {
  const ClockTable& clocks = assigner_.clocks();
  std::uint64_t audited = 0;
  for (const graph::EdgeEnds& e : edges) {
    if (!clocks.assigned(e.from)) {
      carried_.push_back(e);
      continue;
    }
    if (violated_locked(e.from, e.to)) stale.push_back(e);
    ++audited;
  }
  edges.clear();
  metrics().audited_edges.inc(audited);
}

void ClockDaemon::audit_logged_locked(EdgeList& stale) {
  graph::GraphStore& store = graph_.store();
  // Edges carried from earlier passes first: their sources may have clocks
  // by now.
  EdgeList carried;
  carried.swap(carried_);
  audit_or_carry_locked(carried, stale);
  const bool complete = store.drain_edge_log(logged_);
  if (complete && !full_audit_pending_) {
    audit_or_carry_locked(logged_, stale);
    return;
  }
  // Every edge: no evicted range is skipped, since residency says nothing
  // about which edges are new (this pass may fault spilled segments in).
  full_audit_pending_ = false;
  carried_.clear();
  logged_.clear();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  for (graph::NodeId v = 0; v < n; ++v) {
    for (const graph::Edge& e : store.out_edges_snapshot(v)) {
      logged_.push_back(graph::EdgeEnds{v, e.to});
    }
    audit_or_carry_locked(logged_, stale);
  }
}

std::size_t ClockDaemon::tick() { return tick(Trigger::kManual); }

std::size_t ClockDaemon::tick(Trigger trigger) {
  ClockMetrics& m = metrics();
  const obs::Timer timer(m.tick_seconds);
  const std::unique_lock lock(mutex_);
  ticks_.fetch_add(1, std::memory_order_relaxed);
  (trigger == Trigger::kCommit  ? m.commit_ticks
   : trigger == Trigger::kTimer ? m.timer_ticks
                                : m.manual_ticks)
      .inc();
  // Assign first, audit after: the audit then sees both kinds of staleness
  // in one pass — causal pairs that landed after their endpoints were
  // assigned, and edges from a just-assigned node into an earlier-assigned
  // one, such as a replayed upstream event (logged, and carried while its
  // source still lacked clocks).
  const std::size_t assigned = assigner_.assign();
  assigned_ += assigned;
  EdgeList stale;
  audit_logged_locked(stale);
  // Heal the forward closure of violated edges only: a late edge can only
  // raise clocks downstream of its head, and the targeted repair — unlike
  // reassign_all() — does not fault evicted segments back in. Under live
  // ingest new pairs keep racing in between audit and repair, so re-check
  // the repaired edges and whatever was logged meanwhile, and retry a few
  // times; only a persistently failing audit falls back to recomputing
  // everything from scratch.
  std::vector<graph::NodeId> heads;
  for (int attempt = 0; !stale.empty() && attempt < 3; ++attempt) {
    heals_.fetch_add(1, std::memory_order_relaxed);
    m.heals.inc();
    heads.clear();
    for (const graph::EdgeEnds& e : stale) heads.push_back(e.to);
    assigner_.repair(heads);
    EdgeList repaired;
    repaired.swap(stale);
    audit_edges_locked(repaired, stale);
    audit_logged_locked(stale);
  }
  if (!stale.empty()) {
    heals_.fetch_add(1, std::memory_order_relaxed);
    m.heals.inc();
    assigned_ = assigner_.reassign_all();
  }
  publish_gauges_locked();
  return assigned;
}

void ClockDaemon::publish_gauges_locked() const {
  ClockMetrics& m = metrics();
  const std::size_t stored = graph_.store().node_count();
  m.assigned_nodes.set(static_cast<std::int64_t>(assigned_));
  m.unassigned_nodes.set(
      static_cast<std::int64_t>(stored > assigned_ ? stored - assigned_ : 0));
  m.arena_bytes.set(
      static_cast<std::int64_t>(assigner_.clocks().clock_bytes()));
}

bool ClockDaemon::happens_before(graph::NodeId a, graph::NodeId b) const {
  const std::shared_lock lock(mutex_);
  return assigner_.clocks().happens_before(a, b);
}

CausalGraphResult ClockDaemon::get_causal_graph(graph::NodeId a,
                                                graph::NodeId b,
                                                bool only_logs) const {
  const std::shared_lock lock(mutex_);
  const CausalQueryEngine engine(graph_, assigner_.clocks());
  return engine.get_causal_graph(a, b, only_logs);
}

CausalGraphResult ClockDaemon::get_causal_graph(graph::NodeId a,
                                                graph::NodeId b,
                                                const QueryOptions& options,
                                                bool only_logs) const {
  const std::shared_lock lock(mutex_);
  const CausalQueryEngine engine(graph_, assigner_.clocks(), options);
  return engine.get_causal_graph(a, b, only_logs);
}

void ClockDaemon::restore_clocks(ClockTable table) {
  const std::unique_lock lock(mutex_);
  std::size_t assigned = 0;
  const auto n = static_cast<graph::NodeId>(graph_.store().node_count());
  for (graph::NodeId v = 0; v < n; ++v) {
    if (table.assigned(v)) ++assigned;
  }
  assigner_.restore(std::move(table));
  assigned_ = assigned;
  // The log describes edges relative to the replaced clocks; the table may
  // also predate edges of the restored graph. Audit everything once.
  graph_.store().clear_edge_log();
  carried_.clear();
  full_audit_pending_ = true;
  publish_gauges_locked();
}

std::size_t ClockDaemon::assigned_nodes() const {
  const std::shared_lock lock(mutex_);
  return assigned_;
}

}  // namespace horus
