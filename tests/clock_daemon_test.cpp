#include "core/clock_daemon.h"

#include <string>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/segment_clocks.h"
#include "core/validator.h"
#include "gen/synthetic.h"
#include "gen/topology.h"
#include "graph/segment.h"
#include "queue/broker.h"
#include "scoped_temp_dir.h"

namespace horus {
namespace {

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

  pipeline.start();
  daemon.start();
  for (const Event& e : events) pipeline.publish(e);
  pipeline.drain();
  daemon.stop();
  pipeline.stop();
  daemon.tick();  // final pass over the fully flushed graph

  EXPECT_EQ(daemon.assigned_nodes(), events.size());

  // The final clocks satisfy all invariants (self-healing converged).
  LogicalClockAssigner fresh(graph, {.write_lamport_property = false});
  fresh.assign();
  const auto n = static_cast<graph::NodeId>(graph.store().node_count());
  for (graph::NodeId v = 0; v < n; v += 7) {
    for (const graph::Edge& e : graph.store().out_edges(v)) {
      EXPECT_TRUE(daemon.happens_before(v, e.to));
    }
  }
}

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
