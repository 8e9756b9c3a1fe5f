// Differential suite for the segmented GraphStore (ctest label `segments`):
// a segmented Horus instance and a monolithic one ingest identical event
// streams and must return row-identical answers for Q1 (happens-before over
// a sample grid), Q2 (getCausalGraph, also checked against the clock-free
// reachability cut walked over the segmented store), and MATCH queries —
// as sealed, after property writes into sealed segments, and with every
// sealed segment evicted mid-query (transparent reload). Topologies come from the chaos scenario matrix so
// the streams include retry storms, contention pools and long chains.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/horus.h"
#include "core/segment_clocks.h"
#include "gen/chaos.h"
#include "gen/topology.h"
#include "graph/segment.h"
#include "q2_oracle.h"
#include "query/evaluator.h"
#include "scoped_temp_dir.h"

namespace horus {
namespace {

/// One monolithic + one segmented Horus over the same event stream.
struct Pair {
  std::unique_ptr<ScopedTempDir> spill;  // first: outlives the stores
  std::unique_ptr<Horus> mono;
  std::unique_ptr<Horus> seg;
  graph::SegmentManager* segments = nullptr;
};

Pair build_pair(const gen::TopologyOptions& topology, const std::string& tag,
                std::size_t nodes_per_segment = 24) {
  Pair p;
  p.mono = std::make_unique<Horus>();
  p.seg = std::make_unique<Horus>();
  p.spill = std::make_unique<ScopedTempDir>(tag);

  graph::SegmentOptions options;
  options.nodes_per_segment = nodes_per_segment;
  options.shard_count = 3;
  options.spill_dir = p.spill->str();
  options.auto_evict = false;
  p.segments = &enable_segments(p.seg->graph(), options);

  const std::vector<Event> events = gen::microservice_topology(topology);
  for (const Event& e : events) {
    p.mono->ingest(e);
    p.seg->ingest(e);
  }
  p.mono->seal();
  p.seg->seal();
  EXPECT_EQ(p.mono->graph().store().node_count(),
            p.seg->graph().store().node_count());
  EXPECT_GT(p.segments->sealed_count(), 0u) << tag;
  return p;
}

/// Evenly spread sample of node ids (both stores assign identical ids —
/// same events, same ingest order).
std::vector<graph::NodeId> sample_nodes(const Horus& horus,
                                        std::size_t want = 24) {
  const std::size_t n = horus.graph().store().node_count();
  std::vector<graph::NodeId> sample;
  const std::size_t stride = std::max<std::size_t>(1, n / want);
  for (std::size_t i = 0; i < n; i += stride) {
    sample.push_back(static_cast<graph::NodeId>(i));
  }
  return sample;
}

void expect_q1_grid_identical(const Pair& p, const std::string& tag) {
  const CausalQueryEngine mono = p.mono->query();
  const CausalQueryEngine seg = p.seg->query();
  const std::vector<graph::NodeId> sample = sample_nodes(*p.mono);
  for (graph::NodeId a : sample) {
    for (graph::NodeId b : sample) {
      ASSERT_EQ(mono.happens_before(a, b), seg.happens_before(a, b))
          << tag << ": Q1(" << a << ", " << b << ")";
    }
  }
}

void expect_q2_identical(const Pair& p, const std::string& tag,
                         std::size_t max_pairs = 12) {
  const CausalQueryEngine mono = p.mono->query();
  const CausalQueryEngine seg = p.seg->query();
  const std::vector<graph::NodeId> sample = sample_nodes(*p.mono);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < sample.size() && checked < max_pairs; ++i) {
    for (std::size_t j = i + 1; j < sample.size() && checked < max_pairs;
         ++j) {
      const graph::NodeId a = sample[i];
      const graph::NodeId b = sample[j];
      if (!mono.happens_before(a, b)) continue;  // Q2 wants related pairs
      ++checked;
      const CausalGraphResult want = mono.get_causal_graph(a, b);
      const CausalGraphResult got = seg.get_causal_graph(a, b);
      ASSERT_EQ(want.nodes, got.nodes) << tag << ": Q2 nodes (" << a << ", "
                                       << b << ")";
      ASSERT_EQ(want.edges, got.edges) << tag << ": Q2 edges (" << a << ", "
                                       << b << ")";
      // The answer is the reachability cut, walked edge by edge over the
      // segmented store (evicted segments fault back in).
      ASSERT_TRUE(
          MatchesReachabilityCut(p.seg->graph().store(), got, a, b))
          << tag;
    }
  }
  EXPECT_GT(checked, 0u) << tag << ": no related Q2 pairs sampled";
}

void expect_match_identical(const Pair& p, const std::string& tag) {
  const query::QueryEngine mono(p.mono->graph());
  const query::QueryEngine seg(p.seg->graph());
  // The timestamp window is the planner's segment-skip scan (timestamp has
  // no ordered index), which reads the range summaries; the inline lamport
  // equality is an index lookup; the others cover label scans, edges and
  // aggregation over segments.
  const std::int64_t probe = static_cast<std::int64_t>(
      p.mono->graph().store().node_count() / 2);
  const auto& store = p.mono->graph().store();
  const auto* mid_ts = std::get_if<std::int64_t>(&store.property(
      static_cast<graph::NodeId>(probe), p.mono->graph().keys().timestamp));
  const std::string ts_probe =
      std::to_string(std::max<std::int64_t>(0, mid_ts ? *mid_ts : 0));
  const std::vector<std::string> queries = {
      "MATCH (n) WHERE n.timestamp >= " + ts_probe +
          " RETURN n.eventId ORDER BY n.eventId",
      "MATCH (n:EVENT) RETURN count(*) AS total",
      "MATCH (n {lamportLogicalTime: " + std::to_string(probe) +
          "}) RETURN n.eventId ORDER BY n.eventId",
      "MATCH (n:SND) RETURN n.eventId ORDER BY n.eventId",
      "MATCH (a:SND)-[:HB]->(b:RCV) RETURN a.eventId, b.eventId "
      "ORDER BY a.eventId, b.eventId",
      "MATCH (n:EVENT) WHERE n.lamportLogicalTime < 10 "
      "RETURN n.eventId ORDER BY n.eventId",
  };
  for (const std::string& q : queries) {
    const query::QueryResult want = mono.run(q);
    const query::QueryResult got = seg.run(q);
    ASSERT_EQ(want.columns, got.columns) << tag << ": " << q;
    ASSERT_EQ(want.rows, got.rows) << tag << ": " << q;
    ASSERT_FALSE(got.truncated) << tag << ": " << q;
  }
}

void expect_all_identical(const Pair& p, const std::string& tag) {
  expect_q1_grid_identical(p, tag);
  expect_q2_identical(p, tag);
  expect_match_identical(p, tag);
}

TEST(SegmentDifferentialTest, BaselineTopology) {
  gen::TopologyOptions topology;
  topology.num_services = 5;
  topology.depth = 2;
  topology.requests = 8;
  const Pair p = build_pair(topology, "baseline");
  expect_all_identical(p, "baseline");
}

TEST(SegmentDifferentialTest, ChaosScenarioMatrix) {
  // Reuse the chaos factory's adversarial topologies (retry storms,
  // contention pools, long chains); the queue fault plans don't apply here —
  // this suite compares stores, not pipelines.
  for (const gen::ChaosScenario& scenario :
       gen::builtin_chaos_scenarios(/*seed=*/11)) {
    gen::TopologyOptions topology = scenario.topology;
    topology.requests = std::min<std::size_t>(topology.requests, 8);
    const Pair p = build_pair(topology, "chaos-" + scenario.name);
    expect_all_identical(p, scenario.name);
  }
}

TEST(SegmentDifferentialTest, IdenticalUnderEviction) {
  gen::TopologyOptions topology;
  topology.num_services = 6;
  topology.depth = 2;
  topology.requests = 10;
  topology.retry_storm_p = 0.2;
  const Pair p = build_pair(topology, "evicted", /*nodes_per_segment=*/16);

  // Evict everything sealed, then query: answers must be identical through
  // transparent reload. Re-evict between passes — Q1 runs off the clock
  // table alone, so only the payload-touching passes fault segments back.
  ASSERT_GT(p.segments->evict_all(), 0u);
  ASSERT_GT(p.segments->evicted_count(), 0u);
  expect_q1_grid_identical(p, "evicted/q1");
  p.segments->evict_all();
  ASSERT_GT(p.segments->evicted_count(), 0u);
  expect_q2_identical(p, "evicted/q2");
  p.segments->evict_all();
  ASSERT_GT(p.segments->evicted_count(), 0u);
  expect_match_identical(p, "evicted/match");
  // Q2 and MATCH faulted segments in on demand.
  EXPECT_LT(p.segments->evicted_count(), p.segments->sealed_count());
}

TEST(SegmentDifferentialTest, ContentionTopology) {
  gen::TopologyOptions topology;
  topology.num_services = 5;
  topology.depth = 2;
  topology.requests = 8;
  topology.contention_services = 2;
  const Pair p = build_pair(topology, "contention");
  expect_all_identical(p, "contention");
}

TEST(SegmentDifferentialTest, IdenticalAfterWritesIntoSealedSegments) {
  gen::TopologyOptions topology;
  topology.num_services = 5;
  topology.depth = 2;
  topology.requests = 8;
  const Pair p = build_pair(topology, "rewrite");
  // Move one node of every sealed segment far outside the values ingest
  // produced, in both stores. The segmented store must widen each range on
  // write, or the skip scans below would drop the rewritten nodes.
  const ExecutionGraphKeys& keys = p.seg->graph().keys();
  std::int64_t big = 1'000'000'000;
  std::size_t rewritten = 0;
  for (const graph::SegmentInfo& info : p.segments->list()) {
    if (!info.sealed) continue;
    const graph::NodeId node = info.first + info.count / 2;
    for (Horus* h : {p.mono.get(), p.seg.get()}) {
      h->graph().store().set_property(node, keys.timestamp, big);
      h->graph().store().set_property(node, keys.lamport, big + 1);
    }
    big += 10;
    ++rewritten;
  }
  ASSERT_GT(rewritten, 0u);
  // Q2 is left out: its engine takes candidates from the stored Lamport
  // values, which the rewrite moved away from the clock table's, so its
  // answers are no longer the reachability cut on either store.
  expect_q1_grid_identical(p, "rewrite");
  expect_match_identical(p, "rewrite");
  for (const std::string& q :
       {std::string("MATCH (n) WHERE n.timestamp >= 1000000000 "
                    "RETURN n.eventId ORDER BY n.eventId"),
        std::string("MATCH (n) WHERE n.timestamp = 1000000010 "
                    "RETURN n.eventId")}) {
    const query::QueryResult want = query::QueryEngine(p.mono->graph()).run(q);
    const query::QueryResult got = query::QueryEngine(p.seg->graph()).run(q);
    EXPECT_FALSE(want.rows.empty()) << q;
    EXPECT_EQ(want.rows, got.rows) << q;
  }
  const query::QueryResult all = query::QueryEngine(p.seg->graph()).run(
      "MATCH (n) WHERE n.timestamp >= 1000000000 RETURN count(*) AS c");
  ASSERT_EQ(all.rows.size(), 1u);
  EXPECT_EQ(all.rows[0][0], query::Value(static_cast<std::int64_t>(rewritten)));
}

}  // namespace
}  // namespace horus
