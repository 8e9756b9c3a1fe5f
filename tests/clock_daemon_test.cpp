#include "core/clock_daemon.h"

#include <chrono>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pipeline.h"
#include "core/segment_clocks.h"
#include "core/validator.h"
#include "gen/synthetic.h"
#include "gen/topology.h"
#include "graph/segment.h"
#include "obs/metrics.h"
#include "queue/broker.h"
#include "scoped_temp_dir.h"

namespace horus {
namespace {

/// The daemon's clocks equal those of a from-scratch assignment of the same
/// graph, node by node: Lamport value, timeline, position and every vector
/// component (matched by timeline name, since a table numbers its timelines
/// in the order its assignment met them).
void expect_clocks_match_fresh(const ClockDaemon& daemon,
                               ExecutionGraph& graph) {
  LogicalClockAssigner fresh(graph, {.write_lamport_property = false});
  fresh.assign();
  const ClockTable& want = fresh.clocks();
  const auto n = static_cast<graph::NodeId>(graph.store().node_count());
  daemon.with_clocks([&](const ClockTable& got) {
    ASSERT_EQ(got.timeline_count(), want.timeline_count());
    std::map<std::string, std::int32_t> got_timeline;
    for (std::size_t t = 0; t < got.timeline_count(); ++t) {
      const auto id = static_cast<std::int32_t>(t);
      got_timeline[got.timeline_name(id)] = id;
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      ASSERT_TRUE(got.assigned(v)) << "node " << v;
      ASSERT_EQ(got.lamport(v), want.lamport(v)) << "node " << v;
      ASSERT_EQ(got.timeline_name(got.timeline_of(v)),
                want.timeline_name(want.timeline_of(v)))
          << "node " << v;
      ASSERT_EQ(got.position(v), want.position(v)) << "node " << v;
      for (std::size_t t = 0; t < want.timeline_count(); ++t) {
        const auto id = static_cast<std::int32_t>(t);
        ASSERT_EQ(got.vc_component(v, got_timeline.at(want.timeline_name(id))),
                  want.vc_component(v, id))
            << "node " << v << ", timeline " << want.timeline_name(id);
      }
    }
  });
}

/// Writes a random causal graph through the store the way the pipeline
/// does: each node lands with its timeline's chain edge (add_node_after),
/// and cross-timeline edges land at any time, often after both ends have
/// clocks. A hidden rank rises along every chain and along every edge, so
/// the graph stays acyclic while edges run both up and down the node ids.
class RandomCausalWriter {
 public:
  RandomCausalWriter(ExecutionGraph& graph, Rng& rng, int timelines)
      : graph_(graph),
        rng_(rng),
        tails_(static_cast<std::size_t>(timelines), graph::kNoNode) {}

  graph::NodeId add_node() {
    const auto t = static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(tails_.size()) - 1));
    graph::PropertyList props;
    props.emplace_back(graph_.keys().timeline, "t" + std::to_string(t));
    graph::GraphStore& store = graph_.store();
    const graph::NodeId tail = tails_[t];
    const std::int64_t rank =
        (tail == graph::kNoNode ? 0 : rank_[tail]) + rng_.uniform(1, 50);
    const graph::NodeId v =
        tail == graph::kNoNode
            ? store.add_node_typed("LOG", std::move(props))
            : store.add_node_after(tail, kIntraEdgeType, "LOG",
                                   std::move(props));
    rank_.push_back(rank);
    tails_[t] = v;
    return v;
  }

  /// Adds an edge between two random nodes, in rank order. Returns its
  /// source, or kNoNode when no edge was added (fewer than two nodes, or a
  /// rank tie).
  graph::NodeId add_edge() {
    const auto n = static_cast<std::int64_t>(rank_.size());
    if (n < 2) return graph::kNoNode;
    auto a = static_cast<graph::NodeId>(rng_.uniform(0, n - 1));
    auto b = static_cast<graph::NodeId>(rng_.uniform(0, n - 1));
    if (rank_[a] == rank_[b]) return graph::kNoNode;
    if (rank_[a] > rank_[b]) std::swap(a, b);
    graph_.store().add_edge(a, b, kInterEdgeType);
    return a;
  }

 private:
  ExecutionGraph& graph_;
  Rng& rng_;
  std::vector<graph::NodeId> tails_;  ///< latest node per timeline
  std::vector<std::int64_t> rank_;    ///< by node id
};

TEST(ClockDaemonTest, TickAssignsIncrementally) {
  ExecutionGraph graph;
  IntraProcessEncoder intra(graph, {});
  gen::ClientServerOptions options;
  options.num_events = 200;
  const auto events = gen::client_server_events(options);

  ClockDaemon daemon(graph);
  for (std::size_t i = 0; i < 100; ++i) intra.on_event(events[i]);
  intra.flush();
  EXPECT_EQ(daemon.tick(), 100u);
  for (std::size_t i = 100; i < 200; ++i) intra.on_event(events[i]);
  intra.flush();
  EXPECT_EQ(daemon.tick(), 100u);
  EXPECT_EQ(daemon.assigned_nodes(), 200u);
  EXPECT_GE(daemon.ticks(), 2u);
}

TEST(ClockDaemonTest, HealsAfterLateEdge) {
  ExecutionGraph graph;
  IntraProcessEncoder intra(graph, {});
  InterProcessEncoder inter(graph);

  gen::ClientServerOptions options;
  options.num_events = 40;
  const auto events = gen::client_server_events(options);

  // Persist all nodes but withhold the inter-process edges.
  for (const Event& e : events) intra.on_event(e);
  intra.flush();

  ClockDaemon daemon(graph);
  daemon.tick();  // assigns with only intra edges — soon to be stale

  // Now the causal pairs land.
  for (const Event& e : events) inter.on_event(e);
  inter.flush();

  daemon.tick();  // audit must detect staleness and recompute
  EXPECT_GE(daemon.heals(), 1u);

  // After healing, clocks agree with a from-scratch assignment.
  LogicalClockAssigner fresh(graph, {.write_lamport_property = false});
  fresh.assign();
  const auto n = static_cast<graph::NodeId>(graph.store().node_count());
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = 0; b < n; ++b) {
      EXPECT_EQ(daemon.happens_before(a, b),
                fresh.clocks().happens_before(a, b));
    }
  }
}

TEST(ClockDaemonTest, TargetedHealLeavesEvictedSegmentsAlone) {
  const ScopedTempDir spill("spill");  // outlives the graph's spill files
  ExecutionGraph graph;
  IntraProcessEncoder intra(graph, {});
  InterProcessEncoder inter(graph);

  // A consistent prefix: nodes and causal pairs all flushed, then assigned.
  gen::TopologyOptions prefix;
  prefix.num_services = 3;
  prefix.depth = 2;
  prefix.requests = 10;
  prefix.seed = 5;
  const auto events = gen::microservice_topology(prefix);
  for (const Event& e : events) {
    intra.on_event(e);
    inter.on_event(e);
  }
  intra.flush();
  inter.flush();
  ClockDaemon daemon(graph);
  daemon.tick();
  EXPECT_EQ(daemon.heals(), 0u);

  // Segment the prefix and spill every sealed segment except the newest one
  // (the intra encoders still chain each host's next event to its latest
  // node, which must stay resident for the late batch to append cleanly).
  graph::SegmentOptions seg_options;
  seg_options.nodes_per_segment = 32;
  seg_options.spill_dir = spill.str();
  seg_options.auto_evict = false;
  graph::SegmentManager& segments = enable_segments(graph, seg_options);
  graph::SegmentId newest_sealed = graph::kNoSegment;
  for (const graph::SegmentInfo& info : segments.list()) {
    if (info.sealed) newest_sealed = info.id;
  }
  ASSERT_NE(newest_sealed, graph::kNoSegment);
  for (const graph::SegmentInfo& info : segments.list()) {
    if (info.sealed && info.id != newest_sealed) segments.evict(info.id);
  }
  const std::size_t evicted = segments.evicted_count();
  ASSERT_GT(evicted, 0u);

  // New events land nodes-first; the causal pairs arrive only after a tick
  // has assigned the endpoints, forcing a heal. Disjoint stream offsets keep
  // the late pairs internal to the new batch, so the violated edges sit
  // among new (resident) nodes — the targeted repair must not fault the old
  // spilled segments back in.
  gen::TopologyOptions late = prefix;
  late.requests = 4;
  late.id_base = static_cast<std::uint64_t>(events.size());
  late.stream_offset_base = std::uint64_t{1} << 20;
  const auto more = gen::microservice_topology(late);
  // Appending may fault segments holding a quiet timeline's frontier node
  // (the chain edge writes its out-list) — that is the write path's
  // contract, not the heal's, so the residency assertion brackets only the
  // healing tick below.
  for (const Event& e : more) intra.on_event(e);
  intra.flush();
  daemon.tick();
  for (const Event& e : more) inter.on_event(e);
  inter.flush();
  const std::size_t evicted_before_heal = segments.evicted_count();
  ASSERT_GT(evicted_before_heal, 0u);
  daemon.tick();
  EXPECT_GE(daemon.heals(), 1u);
  EXPECT_EQ(segments.evicted_count(), evicted_before_heal);

  // The repaired clocks agree with a from-scratch assignment (this pass
  // reloads the spilled segments — it runs after the residency check).
  LogicalClockAssigner fresh(graph, {.write_lamport_property = false});
  fresh.assign();
  const auto n = static_cast<graph::NodeId>(graph.store().node_count());
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(daemon.happens_before(a, b),
                fresh.clocks().happens_before(a, b))
          << "Q1(" << a << ", " << b << ")";
    }
  }
}

TEST(ClockDaemonTest, OnlineMonitoringOverLivePipeline) {
  gen::ClientServerOptions gen_options;
  gen_options.num_events = 4000;
  const auto events = gen::client_server_events(gen_options);

  queue::Broker broker;
  ExecutionGraph graph;
  PipelineOptions options;
  options.partitions = 4;
  options.intra_workers = 2;
  options.inter_workers = 2;
  options.event_flush_interval_ms = 5;
  options.relationship_flush_interval_ms = 7;
  Pipeline pipeline(broker, graph, options);
  ClockDaemon daemon(graph, ClockDaemon::Options{.interval_ms = 3});
  pipeline.set_commit_hook([&daemon] { daemon.notify(); });

  pipeline.start();
  daemon.start();
  for (const Event& e : events) pipeline.publish(e);
  pipeline.drain();
  daemon.stop();
  pipeline.stop();
  daemon.tick();  // final pass over the fully flushed graph

  EXPECT_EQ(daemon.assigned_nodes(), events.size());
  // Ticks raced both stages' writes; healing converged to the canonical
  // clocks, timeline positions included.
  expect_clocks_match_fresh(daemon, graph);
}

TEST(ClockDaemonTest, LateEdgeOutOfAnEvictedSegmentIsHealed) {
  // An edge written into a sealed segment that is evicted again before the
  // next tick: the tick must still audit it. Residency says nothing about
  // which edges are new; the edge log does.
  const ScopedTempDir spill("spill");  // outlives the graph's spill files
  ExecutionGraph graph;
  Rng rng(7);
  RandomCausalWriter writer(graph, rng, 6);
  for (int i = 0; i < 200; ++i) writer.add_node();
  for (int i = 0; i < 40; ++i) (void)writer.add_edge();
  ClockDaemon daemon(graph);
  daemon.tick();
  ASSERT_EQ(daemon.heals(), 0u);

  graph::SegmentOptions seg_options;
  seg_options.nodes_per_segment = 32;
  seg_options.spill_dir = spill.str();
  seg_options.auto_evict = false;
  graph::SegmentManager& segments = enable_segments(graph, seg_options);
  const graph::SegmentInfo first = segments.list().front();
  ASSERT_TRUE(first.sealed);

  // A source in the first segment and a concurrent head outside it: the
  // edge keeps the graph acyclic and leaves the head's clocks stale.
  const auto n = static_cast<graph::NodeId>(graph.store().node_count());
  std::optional<std::pair<graph::NodeId, graph::NodeId>> late;
  for (graph::NodeId u = first.first; !late && u < first.first + first.count;
       ++u) {
    for (graph::NodeId w = first.first + first.count; w < n; ++w) {
      if (!daemon.happens_before(u, w) && !daemon.happens_before(w, u)) {
        late.emplace(u, w);
        break;
      }
    }
  }
  ASSERT_TRUE(late.has_value());
  graph.store().add_edge(late->first, late->second, kInterEdgeType);
  ASSERT_GT(segments.evict(first.id), 0u);
  ASSERT_FALSE(segments.is_resident(first.id));

  daemon.tick();
  EXPECT_GE(daemon.heals(), 1u);
  EXPECT_TRUE(daemon.happens_before(late->first, late->second));
  expect_clocks_match_fresh(daemon, graph);
}

TEST(ClockDaemonTest, RestoredStaleTableIsHealedByOneTick) {
  // A checkpoint's clock table can predate edges of the graph restored with
  // it. The edge log cannot know those edges, so the first tick after
  // restore_clocks() audits every edge.
  ExecutionGraph graph;
  Rng rng(11);
  RandomCausalWriter writer(graph, rng, 5);
  std::string record;
  {
    ClockDaemon before(graph);
    for (int i = 0; i < 150; ++i) writer.add_node();
    for (int i = 0; i < 60; ++i) (void)writer.add_edge();
    before.tick();
    record = before.with_clocks([](const ClockTable& table) {
      std::ostringstream out;
      table.save(out);
      return std::move(out).str();
    });
  }
  // Written with no daemon attached: late edges into assigned nodes, new
  // nodes, and edges out of new nodes into assigned ones.
  for (int i = 0; i < 40; ++i) (void)writer.add_edge();
  for (int i = 0; i < 30; ++i) writer.add_node();
  for (int i = 0; i < 40; ++i) (void)writer.add_edge();

  ClockDaemon restored(graph);
  std::istringstream in(record);
  restored.restore_clocks(ClockTable::load(in));
  restored.tick();
  EXPECT_GE(restored.heals(), 1u);
  expect_clocks_match_fresh(restored, graph);
}

// Each new edge is audited once per tick that sees it: from the edge log,
// not a second time as an out-edge of its newly clocked source.
TEST(ClockDaemonTest, TickAuditsEachNewEdgeOnce) {
  obs::Counter& audited =
      obs::Registry::global().counter("horus_clock_audited_edges_total", "");
  ExecutionGraph graph;
  Rng rng(11);
  RandomCausalWriter writer(graph, rng, 5);
  ClockDaemon daemon(graph, ClockDaemon::Options{.interval_ms = 3'600'000});
  // Round 0 writes nodes and cross-timeline edges into an empty graph;
  // round 1 only appends nodes, whose chain edges start at clocked tails.
  // Neither leaves a violated edge, so no tick heals.
  for (int round = 0; round < 2; ++round) {
    const std::size_t edges_before = graph.store().edge_count();
    for (int i = 0; i < 400; ++i) writer.add_node();
    if (round == 0) {
      for (int i = 0; i < 150; ++i) (void)writer.add_edge();
    }
    const std::size_t new_edges = graph.store().edge_count() - edges_before;
    ASSERT_GE(new_edges, 395u);
    const std::uint64_t audited_before = audited.value();
    const std::uint64_t heals_before = daemon.heals();
    daemon.tick();
    ASSERT_EQ(daemon.heals(), heals_before) << "round " << round;
    EXPECT_EQ(audited.value() - audited_before, new_edges) << "round " << round;
  }
  expect_clocks_match_fresh(daemon, graph);
}

TEST(ClockDaemonTest, MetricsShowTriggersLagAndAuditSize) {
  obs::Registry& registry = obs::Registry::global();
  obs::Family<obs::Counter>& ticks = registry.counters(
      "horus_clock_ticks_total", "Assignment passes run, by what started them");
  obs::Counter& manual = ticks.with({{"trigger", "manual"}});
  obs::Counter& commit = ticks.with({{"trigger", "commit"}});
  obs::Counter& timer = ticks.with({{"trigger", "timer"}});
  obs::Counter& audited = registry.counter("horus_clock_audited_edges_total", "");
  obs::Gauge& unassigned = registry.gauge("horus_clock_unassigned_nodes", "");

  ExecutionGraph graph;
  Rng rng(3);
  RandomCausalWriter writer(graph, rng, 4);
  for (int i = 0; i < 2000; ++i) writer.add_node();
  for (int i = 0; i < 600; ++i) (void)writer.add_edge();
  ClockDaemon daemon(graph, ClockDaemon::Options{.interval_ms = 3'600'000});

  const std::uint64_t manual_before = manual.value();
  daemon.tick();
  EXPECT_EQ(manual.value(), manual_before + 1);
  EXPECT_EQ(unassigned.value(), 0);

  // A restored table that covers nothing leaves every node unclocked until
  // the next tick.
  daemon.restore_clocks(ClockTable{});
  EXPECT_EQ(unassigned.value(),
            static_cast<std::int64_t>(graph.store().node_count()));
  daemon.tick();
  EXPECT_EQ(unassigned.value(), 0);

  // A tick after a small batch audits about that batch, not the graph.
  const std::size_t edges_before = graph.store().edge_count();
  for (int i = 0; i < 10; ++i) writer.add_node();
  for (int i = 0; i < 5; ++i) (void)writer.add_edge();
  const std::size_t new_edges = graph.store().edge_count() - edges_before;
  ASSERT_GT(new_edges, 0u);
  const std::uint64_t audited_before = audited.value();
  daemon.tick();
  const std::uint64_t audited_now = audited.value() - audited_before;
  EXPECT_GE(audited_now, new_edges);
  EXPECT_LT(audited_now, graph.store().edge_count() / 10);
  expect_clocks_match_fresh(daemon, graph);

  // notify() wakes the background thread long before its interval.
  const std::uint64_t commit_before = commit.value();
  const std::uint64_t timer_before = timer.value();
  daemon.start();
  daemon.notify();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (commit.value() == commit_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.stop();
  EXPECT_EQ(commit.value(), commit_before + 1);
  EXPECT_EQ(timer.value(), timer_before + 1);  // the start-up tick only

  // With no notification, the interval is the backstop.
  ExecutionGraph idle_graph;
  ClockDaemon idle(idle_graph, ClockDaemon::Options{.interval_ms = 1});
  const std::uint64_t idle_before = timer.value();
  idle.start();
  while (timer.value() < idle_before + 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  idle.stop();
  EXPECT_GE(timer.value(), idle_before + 3);
}

class ClockDaemonPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ClockDaemonPropertyTest, RandomWritesAndTicksMatchFreshAssign) {
  // Random interleavings of node writes, edge writes (many into assigned
  // nodes), ticks and evictions (often of the segment an edge was just
  // written into). After a final tick the clocks are the canonical ones.
  const int seed = GetParam();
  const ScopedTempDir spill("spill");
  Rng rng(static_cast<std::uint64_t>(seed));
  ExecutionGraph graph;
  graph::SegmentOptions seg_options;
  seg_options.nodes_per_segment =
      static_cast<std::uint32_t>(rng.uniform(8, 32));
  seg_options.spill_dir = spill.str();
  seg_options.auto_evict = false;
  graph::SegmentManager& segments = enable_segments(graph, seg_options);
  ClockDaemon daemon(graph);
  RandomCausalWriter writer(graph, rng, static_cast<int>(rng.uniform(2, 8)));

  graph::NodeId last_source = graph::kNoNode;
  for (int step = 0; step < 500; ++step) {
    const double r = rng.uniform01();
    if (r < 0.40) {
      writer.add_node();
    } else if (r < 0.75) {
      if (const graph::NodeId u = writer.add_edge(); u != graph::kNoNode) {
        last_source = u;
      }
    } else if (r < 0.88) {
      daemon.tick();
    } else {
      graph::SegmentId target = graph::kNoSegment;
      if (last_source != graph::kNoNode && rng.uniform01() < 0.5) {
        target = segments.segment_of(last_source);
      } else {
        const auto list = segments.list();
        target = list[static_cast<std::size_t>(
                          rng.uniform(0, static_cast<std::int64_t>(list.size()) - 1))]
                     .id;
      }
      (void)segments.evict(target);  // 0 when unsealed or already evicted
    }
  }
  daemon.tick();
  expect_clocks_match_fresh(daemon, graph);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClockDaemonPropertyTest,
                         ::testing::Range(1, 51));

TEST(ClockDaemonTest, QueriesBeforeAssignmentAreSafe) {
  ExecutionGraph graph;
  ClockDaemon daemon(graph);
  EXPECT_FALSE(daemon.happens_before(0, 1));
  EXPECT_TRUE(daemon.get_causal_graph(0, 1).nodes.empty());
}

TEST(ClockDaemonTest, StartStopIdempotent) {
  ExecutionGraph graph;
  ClockDaemon daemon(graph, ClockDaemon::Options{.interval_ms = 1});
  daemon.start();
  daemon.start();  // no-op
  daemon.stop();
  daemon.stop();  // no-op
}

}  // namespace
}  // namespace horus
