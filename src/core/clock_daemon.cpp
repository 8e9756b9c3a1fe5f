#include "core/clock_daemon.h"

#include <chrono>
#include <utility>
#include <vector>

#include "graph/segment.h"
#include "obs/metrics.h"

namespace horus {

ClockDaemon::ClockDaemon(ExecutionGraph& graph, Options options)
    : graph_(graph), options_(options), assigner_(graph) {}

ClockDaemon::~ClockDaemon() {
  if (running_.load()) stop();
}

void ClockDaemon::start() {
  if (running_.exchange(true)) return;
  stop_requested_.store(false);
  worker_ = ThreadPool::shared().spawn_service([this] {
    while (!stop_requested_.load(std::memory_order_acquire)) {
      tick();
      std::unique_lock lock(wake_mutex_);
      wake_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                     [this] {
                       return stop_requested_.load(std::memory_order_acquire);
                     });
    }
  });
}

void ClockDaemon::stop() {
  if (!running_.load()) return;
  stop_requested_.store(true, std::memory_order_release);
  wake_.notify_all();
  worker_.join();
  running_.store(false);
  tick();  // pick up anything that landed after the last periodic pass
}

std::vector<graph::NodeId> ClockDaemon::audit_locked() const {
  const graph::GraphStore& store = graph_.store();
  const auto& clocks = assigner_.clocks();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  std::vector<graph::NodeId> stale_heads;
  // Skip nodes in evicted segments: their adjacency is immutable since the
  // spill was written (any edge write faults the segment back in first and
  // dirties the spill), those edges passed this audit while resident, and
  // assigning a downstream node reads predecessor clocks from the table —
  // never the evicted payload. Without this, the periodic audit's
  // out_edges_snapshot() walk reloads every spilled segment each tick and
  // the resident budget can never hold. Heals still reassign_all(), which
  // walks everything.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> evicted;  // [first,end)
  if (const graph::SegmentManager* segments = store.segments()) {
    for (const graph::SegmentInfo& info : segments->list()) {
      if (!info.resident) {
        evicted.emplace_back(info.first, info.first + info.count);
      }
    }
  }
  auto gap = evicted.cbegin();  // ranges are contiguous and ascending
  for (graph::NodeId v = 0; v < n; ++v) {
    while (gap != evicted.cend() && v >= gap->second) ++gap;
    if (gap != evicted.cend() && v >= gap->first) {
      v = gap->second - 1;  // resume after the evicted range
      continue;
    }
    if (!clocks.assigned(v)) continue;
    const auto lv = clocks.lamport(v);
    for (const graph::Edge& e : store.out_edges_snapshot(v)) {
      if (!clocks.assigned(e.to)) continue;
      // Both the Lamport and the full vector-clock invariant must hold on
      // every edge; a pred assigned without one of its in-edges fails the
      // VC check even when the Lamport values happen to line up.
      if (lv >= clocks.lamport(e.to) || !clocks.vc_less(v, e.to)) {
        stale_heads.push_back(e.to);
      }
    }
  }
  return stale_heads;
}

std::size_t ClockDaemon::tick() {
  // Function-local statics: resolved once, shared by every daemon in the
  // process (there is normally one; a second would aggregate into the same
  // series, which is the semantics we want for process totals).
  static obs::Histogram& tick_seconds = obs::Registry::global().histogram(
      "horus_clock_tick_seconds",
      "Logical-clock assignment pass latency (audit + assign/heal)");
  static obs::Counter& ticks_total = obs::Registry::global().counter(
      "horus_clock_ticks_total", "Assignment passes run");
  static obs::Counter& heals_total = obs::Registry::global().counter(
      "horus_clock_heals_total",
      "Passes that found a violated edge invariant and reassigned all");
  static obs::Gauge& assigned_nodes = obs::Registry::global().gauge(
      "horus_clock_assigned_nodes", "Nodes with logical clocks assigned");
  static obs::Gauge& arena_bytes = obs::Registry::global().gauge(
      "horus_clock_vc_arena_bytes",
      "Resident bytes of the VC store (arena + slots)");

  const obs::Timer timer(tick_seconds);
  const std::unique_lock lock(mutex_);
  ticks_.fetch_add(1, std::memory_order_relaxed);
  ticks_total.inc();
  // Assign first, audit after: the post-assign audit sees both kinds of
  // staleness in one pass — causal pairs that landed after their endpoints
  // were assigned, and edges from a just-assigned node into an
  // earlier-assigned one (a replayed upstream event, say).
  std::size_t assigned = assigner_.assign();
  assigned_ += assigned;
  // Heal the forward closure of violated edges only: a late edge can only
  // raise clocks downstream of its head, and the targeted repair — unlike
  // reassign_all() — does not fault evicted segments back in. Under live
  // ingest new pairs keep racing in between audit and repair, so retry the
  // cheap pass a few times; only a persistently failing audit falls back to
  // recomputing everything from scratch.
  std::vector<graph::NodeId> stale = audit_locked();
  for (int attempt = 0; !stale.empty() && attempt < 3; ++attempt) {
    heals_.fetch_add(1, std::memory_order_relaxed);
    heals_total.inc();
    assigner_.repair(stale);
    stale = audit_locked();
  }
  if (!stale.empty()) {
    heals_.fetch_add(1, std::memory_order_relaxed);
    heals_total.inc();
    assigned_ = assigner_.reassign_all();
  }
  assigned_nodes.set(static_cast<std::int64_t>(assigned_));
  arena_bytes.set(static_cast<std::int64_t>(assigner_.clocks().clock_bytes()));
  return assigned;
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
}

std::size_t ClockDaemon::assigned_nodes() const {
  const std::shared_lock lock(mutex_);
  return assigned_;
}

}  // namespace horus
