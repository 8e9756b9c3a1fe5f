// Plan-differential oracle suite (ctest label `plan`): every corpus query
// must return row-for-row what the brute-force reference of
// tests/query_reference.h returns — MATCH by a walk over every node id,
// checking labels and inline properties one node at a time — across chaos
// topologies, over resident, segmented and fully-evicted stores, at 1/2/8
// threads, including column names and row order. The corpus covers every
// scan kind, inline properties, relationship steps, `[*]`, comma-separated
// patterns, later MATCH clauses and the Fig. 4a CALL.
//
// A second set of tests pins the *plan shapes*: the planner must actually
// choose the index/range/segment-skip scans the differential rows prove
// correct, plan inline properties as the WHERE equalities they mean, and
// name its reason when a query runs clause by clause.
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
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/procedures.h"
#include "query_reference.h"
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

Pair build_pair(const gen::TopologyOptions& topology, const std::string& tag) {
  Pair p;
  p.mono = std::make_unique<Horus>();
  p.seg = std::make_unique<Horus>();
  p.spill = std::make_unique<ScopedTempDir>(tag);

  graph::SegmentOptions options;
  options.nodes_per_segment = 24;
  options.shard_count = 3;
  options.spill_dir = p.spill->str();
  options.auto_evict = false;
  p.segments = &enable_segments(p.seg->graph(), options);

  for (const Event& e : gen::microservice_topology(topology)) {
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

std::int64_t int_property(const graph::GraphStore& store, graph::NodeId node,
                          graph::PropKeyId key) {
  const auto& pv = store.property(node, key);
  if (const auto* i = std::get_if<std::int64_t>(&pv)) return *i;
  return 0;
}

std::string string_property(const graph::GraphStore& store,
                            graph::NodeId node, graph::PropKeyId key) {
  const auto& pv = store.property(node, key);
  if (const auto* s = std::get_if<std::string>(&pv)) return *s;
  return {};
}

/// Corpus parameterized with values that actually occur in the graph, so
/// the selective queries return non-trivial row sets.
std::vector<std::string> build_corpus(const ExecutionGraph& graph) {
  const auto& store = graph.store();
  const graph::NodeId probe = store.node_count() / 2;
  // The grammar has no unary minus, so negative probes (clock-drift
  // scenarios produce negative timestamps) clamp to 0 — the query is then
  // merely less selective, which the differential does not care about.
  const auto probe_int = [&](graph::PropKeyId key) {
    return std::to_string(std::max<std::int64_t>(
        0, int_property(store, probe, key)));
  };
  const std::string mid_id = probe_int(graph.keys().event_id);
  const std::string mid_lamport = probe_int(graph.keys().lamport);
  const std::string mid_ts = probe_int(graph.keys().timestamp);
  const std::string host = string_property(store, probe, graph.keys().host);
  // Two LOG anchors a few requests apart for the Fig. 4a CALL.
  std::vector<std::string> logs;
  for (graph::NodeId v = 0; v < store.node_count(); ++v) {
    if (store.node_label(v) == "LOG") {
      logs.push_back(
          std::to_string(int_property(store, v, graph.keys().event_id)));
    }
  }
  const std::string log_a = logs.empty() ? "0" : logs[logs.size() / 4];
  const std::string log_b = logs.empty() ? "0" : logs[logs.size() / 2];
  return {
      // Scan kinds: all-nodes, label, hash-index eq (both orientations),
      // ordered-index range, timestamp window (segment-skip when
      // segmented), inline pattern props.
      "MATCH (n) RETURN n.eventId",
      "MATCH (n:SND) RETURN n.eventId",
      "MATCH (n) WHERE n.eventId = " + mid_id + " RETURN n.eventId, n.host",
      "MATCH (n) WHERE " + mid_id + " = n.eventId RETURN n.eventId",
      "MATCH (n) WHERE n.lamportLogicalTime >= 2 AND "
      "n.lamportLogicalTime <= " + mid_lamport + " RETURN n.eventId",
      "MATCH (n) WHERE n.timestamp >= " + mid_ts + " RETURN n.eventId",
      "MATCH (n {lamportLogicalTime: " + mid_lamport +
          "}) RETURN n.eventId",
      // Residual predicates: interned equality / inequality, in-place
      // numeric compare, conjunct reordering around a pinned (arithmetic)
      // conjunct, a never-seen property key.
      "MATCH (n) WHERE n.host = \"" + host + "\" RETURN n.eventId, n.host",
      "MATCH (n:RCV) WHERE n.host <> \"" + host + "\" RETURN n.eventId",
      "MATCH (n) WHERE n.lamportLogicalTime < " + mid_lamport +
          " AND n.host = \"" + host + "\" RETURN n.eventId",
      "MATCH (n) WHERE n.host = \"" + host +
          "\" AND n.eventId + 0 >= 0 RETURN n.eventId",
      "MATCH (n) WHERE n.neverSetKey = 5 RETURN n.eventId",
      "MATCH (n) WHERE n.neverSetKey <> 1 AND n.eventType = \"SND\" "
      "RETURN n.eventId",
      "MATCH (n) WHERE n.eventType = \"SND\" AND n.lamportLogicalTime >= 2 "
      "RETURN n.eventId",
      "MATCH (n) WHERE n.host = \"no-such-host\" RETURN n.eventId",
      // Projection/limit pushdown and the clauses that must stay in the
      // legacy tail: aggregates, DISTINCT, ORDER BY, RETURN *, WITH chains.
      "MATCH (n) RETURN n.eventId LIMIT 5",
      "MATCH (n) WHERE n.lamportLogicalTime > 3 AND n.lamportLogicalTime "
      "< 100000 AND n.host = \"" + host + "\" RETURN n.eventId LIMIT 7",
      "MATCH (n) WHERE n.lamportLogicalTime >= 2 RETURN count(*) AS c",
      "MATCH (n) WHERE n.eventId >= 0 RETURN DISTINCT n.host AS h",
      "MATCH (n) WHERE n.host = \"" + host +
          "\" RETURN n.eventId ORDER BY n.eventId DESC",
      "MATCH (n) WHERE n.eventId = " + mid_id + " RETURN *",
      "MATCH (n:SND) WITH n.host AS h, count(*) AS c RETURN h, c ORDER BY "
      "h",
      // Planner fallbacks must still answer correctly.
      "MATCH (a:SND)-[:HB]->(b:RCV) RETURN a.eventId, b.eventId "
      "ORDER BY a.eventId, b.eventId",
      "MATCH (n) WHERE n.lamportLogicalTime > 100000000 RETURN n.eventId",
      // Inline properties: the equalities they mean, with a label, typed
      // numbers, a null and a key never stored; an empty aggregate.
      "MATCH (n:EVENT {eventId: " + mid_id + "}) RETURN n.host AS host",
      "MATCH (n {eventId: " + mid_id + ".0}) RETURN n.eventId",
      "MATCH (n) WHERE n.eventId = " + mid_id + ".0 RETURN n.eventId",
      "MATCH (n:LOG {host: '" + host + "'}) RETURN count(*) AS logs",
      "MATCH (n:LOG {host: 'no-such-host'}) RETURN count(*) AS logs",
      "MATCH (n:RCV {host: '" + host + "', eventType: 'RCV'}) "
      "RETURN n.eventId",
      "MATCH (n {neverSetKey: null}) WHERE n.eventId < 9 RETURN n.eventId",
      "MATCH (n {neverSetKey: 1}) RETURN n",
      // Heads the clause pipeline matches: relationship steps with inline
      // properties on either end, `[*]` and bounded ranges, an anonymous
      // head, comma-separated patterns, later MATCH clauses over bound and
      // row-dependent heads, and the Fig. 4a CALL.
      "MATCH (a:SND {host: '" + host + "'})-[:HB]->(b:RCV) "
      "RETURN a.eventId, b.eventId",
      "MATCH (a:SND)-->(b:RCV {host: '" + host + "'}) RETURN a.eventId, "
      "b.eventId",
      "MATCH (a {eventId: " + mid_id + "})-[*]->(b) RETURN b.eventId",
      "MATCH (a {eventId: " + mid_id + "})<-[*1..3]-(b:SND) RETURN b.eventId",
      "MATCH ({eventId: " + mid_id + "})-->(b) RETURN b.eventId",
      "MATCH (a:SND {host: '" + host + "'}), (b:RCV {host: '" + host +
          "'}) RETURN a.eventId, b.eventId",
      "MATCH (a:SND) MATCH (a)-[:HB]->(b) RETURN a.eventId, b.eventId",
      "MATCH (a {eventId: " + mid_id + "}) MATCH (a:EVENT {host: '" + host +
          "'}) RETURN a.eventId",
      "MATCH (a:SND {host: '" + host + "'}) MATCH (b:RCV {host: a.host}) "
      "RETURN a.eventId, b.eventId",
      "MATCH (a:LOG {eventId: " + log_a + "}), (b:LOG {eventId: " + log_b +
          "}) CALL horus.getCausalGraph(a, b, TRUE) YIELD node "
          "WITH node ORDER BY node.lamportLogicalTime ASC "
          "RETURN count(node) AS logs, collect(node.eventId) AS ids",
  };
}

/// An engine over `h` with the horus.* procedures registered.
std::unique_ptr<query::QueryEngine> engine_for(const Horus& h,
                                               unsigned threads) {
  QueryOptions options;
  options.threads = threads;
  // The chaos graphs are small; force real fan-out at threads > 1 so the
  // parallel merge path is actually exercised.
  options.min_parallel_items = 2;
  auto engine = std::make_unique<query::QueryEngine>(h.graph(), options);
  query::register_horus_procedures(*engine, h.graph(), h.clocks(), options);
  return engine;
}

void expect_identical(const query::QueryResult& want,
                      const query::QueryResult& got, const std::string& tag,
                      const std::string& q) {
  ASSERT_EQ(want.columns, got.columns) << tag << ": " << q;
  ASSERT_EQ(want.rows, got.rows) << tag << ": " << q;
  ASSERT_FALSE(got.truncated) << tag << ": " << q;
}

void expect_differential(const Pair& p, const std::string& tag,
                         bool evict_between_queries = false) {
  const std::vector<std::string> corpus = build_corpus(p.mono->graph());
  const auto reference = engine_for(*p.mono, 1);
  for (const std::string& q : corpus) {
    // Reference: brute-force MATCH over the resident store, sequential.
    const query::QueryResult want = query::reference::run(*reference, q);
    ASSERT_FALSE(want.truncated) << tag << ": " << q;
    for (const unsigned threads : {1u, 2u, 8u}) {
      const std::string t = tag + "/t" + std::to_string(threads);
      expect_identical(want, engine_for(*p.mono, threads)->run(q),
                       t + "/resident", q);
      if (evict_between_queries) {
        p.segments->evict_all();
        ASSERT_GT(p.segments->evicted_count(), 0u) << tag;
      }
      expect_identical(want, engine_for(*p.seg, threads)->run(q),
                       t + "/seg", q);
    }
  }
}

TEST(PlanDifferentialTest, BaselineTopology) {
  gen::TopologyOptions topology;
  topology.num_services = 5;
  topology.depth = 2;
  topology.requests = 8;
  const Pair p = build_pair(topology, "baseline");
  expect_differential(p, "baseline");
}

TEST(PlanDifferentialTest, ChaosScenarioMatrix) {
  for (const gen::ChaosScenario& scenario :
       gen::builtin_chaos_scenarios(/*seed=*/23)) {
    gen::TopologyOptions topology = scenario.topology;
    topology.requests = std::min<std::size_t>(topology.requests, 6);
    const Pair p = build_pair(topology, "chaos-" + scenario.name);
    expect_differential(p, scenario.name);
  }
}

TEST(PlanDifferentialTest, IdenticalUnderEviction) {
  gen::TopologyOptions topology;
  topology.num_services = 6;
  topology.depth = 2;
  topology.requests = 8;
  topology.retry_storm_p = 0.2;
  const Pair p = build_pair(topology, "evicted");
  ASSERT_GT(p.segments->evict_all(), 0u);
  expect_differential(p, "evicted", /*evict_between_queries=*/true);
}

TEST(PlanDifferentialTest, ContentionTopology) {
  gen::TopologyOptions topology;
  topology.num_services = 5;
  topology.depth = 2;
  topology.requests = 8;
  topology.contention_services = 2;
  const Pair p = build_pair(topology, "contention");
  expect_differential(p, "contention");
}

// ---------------------------------------------------------------------------
// Plan shapes: the differential rows above prove whatever the planner chose
// is *correct*; these pin down that it chose what it was built to choose.
// ---------------------------------------------------------------------------

class PlanShapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen::TopologyOptions topology;
    topology.num_services = 5;
    topology.depth = 2;
    topology.requests = 8;
    horus_ = new Horus();
    for (const Event& e : gen::microservice_topology(topology)) {
      horus_->ingest(e);
    }
    horus_->seal();
  }
  static void TearDownTestSuite() {
    delete horus_;
    horus_ = nullptr;
  }

  static query::Plan plan_of(const std::string& text) {
    const query::Query q = query::parse_query(text);
    return query::Planner(horus_->graph(), {}).plan(q);
  }

  static Horus* horus_;
};

Horus* PlanShapeTest::horus_ = nullptr;

TEST_F(PlanShapeTest, HashIndexEqualityBecomesTheScan) {
  const auto plan = plan_of(
      "MATCH (n) WHERE n.eventId = 4 RETURN n.eventId");
  ASSERT_TRUE(plan.planned);
  EXPECT_EQ(plan.scan, query::ScanKind::kIndexEq);
  EXPECT_EQ(plan.scan_key_name, "eventId");
  EXPECT_EQ(plan.predicates_pushed, 1u);
  EXPECT_TRUE(plan.predicates.empty());  // the conjunct was consumed
  EXPECT_NE(plan.projection, nullptr);   // RETURN folded into the plan
}

TEST_F(PlanShapeTest, LamportWindowBecomesARangeScan) {
  const auto plan = plan_of(
      "MATCH (n) WHERE n.lamportLogicalTime >= 3 AND "
      "n.lamportLogicalTime < 9 RETURN n.eventId");
  ASSERT_TRUE(plan.planned);
  EXPECT_EQ(plan.scan, query::ScanKind::kRange);
  EXPECT_EQ(plan.range_lo, 3);
  EXPECT_EQ(plan.range_hi, 8);  // < 9 tightens to <= 8
  // Range conjuncts stay in the residual filter (the filter is the
  // authority; the index only sources candidates).
  EXPECT_EQ(plan.predicates.size(), 2u);
}

TEST_F(PlanShapeTest, SelectivityOrdersTheResidualFilter) {
  // The interned eventType equality (1/distinct) must run before the
  // numeric inequality (0.90) even though it comes second in the source.
  // (eventType is interned but has no hash index, so neither conjunct can
  // be consumed by the scan.)
  const auto plan = plan_of(
      "MATCH (n) WHERE n.neverSetKey <> 1 AND n.eventType = \"SND\" "
      "RETURN n.eventId");
  ASSERT_TRUE(plan.planned);
  ASSERT_EQ(plan.predicates.size(), 2u);
  EXPECT_EQ(plan.predicates[0].kind,
            query::PlannedPredicate::Kind::kInternedEq);
  EXPECT_LT(plan.predicates[0].selectivity, plan.predicates[1].selectivity);
}

TEST_F(PlanShapeTest, UnsafeConjunctsStayPinnedInSourceOrder) {
  const auto plan = plan_of(
      "MATCH (n) WHERE n.eventId + 0 >= 0 AND n.host = \"svc-host0\" "
      "RETURN n.eventId");
  ASSERT_TRUE(plan.planned);
  ASSERT_EQ(plan.predicates.size(), 2u);
  // Arithmetic is unsafe: it and everything after it keep source order, so
  // the cheap host predicate may NOT jump ahead of it.
  EXPECT_FALSE(plan.predicates[0].reorderable);
  EXPECT_EQ(plan.predicates[0].source_order, 0u);
}

TEST_F(PlanShapeTest, FallbacksNameTheirReason) {
  EXPECT_FALSE(plan_of("RETURN 1 AS one").planned);
  const auto rel = plan_of(
      "MATCH (a:SND)-[:HB]->(b:RCV) RETURN a.eventId, b.eventId");
  EXPECT_FALSE(rel.planned);
  EXPECT_NE(rel.fallback_reason.find("relationship"), std::string::npos);
}

TEST_F(PlanShapeTest, AggregatesAndOrderByStayInTheLegacyTail) {
  const auto agg = plan_of("MATCH (n) RETURN count(*) AS c");
  ASSERT_TRUE(agg.planned);
  EXPECT_EQ(agg.projection, nullptr);
  const auto ordered =
      plan_of("MATCH (n) RETURN n.eventId ORDER BY n.eventId");
  ASSERT_TRUE(ordered.planned);
  EXPECT_EQ(ordered.projection, nullptr);
}

TEST_F(PlanShapeTest, ExplainReportsActualRowCounts) {
  QueryOptions options;
  const query::QueryEngine engine(horus_->graph(), options);
  const auto explained =
      engine.explain("MATCH (n:SND) RETURN n.eventId LIMIT 3");
  ASSERT_TRUE(explained.report.planned);
  ASSERT_FALSE(explained.report.ops.empty());
  EXPECT_GE(explained.report.ops.front().actual_rows, 3);
  EXPECT_EQ(explained.result.rows.size(), 3u);
  const std::string text = explained.plan_text();
  EXPECT_NE(text.find("scan[label SND"), std::string::npos) << text;
  EXPECT_NE(text.find("act="), std::string::npos) << text;
}

TEST_F(PlanShapeTest, EqualityScanEstimatesOneBucket) {
  // The index hashes numbers by value: `= 4` and `= 4.0` probe one bucket,
  // and the estimate is that bucket's size.
  const query::QueryEngine engine(horus_->graph(), {});
  for (const std::string constant : {"4", "4.0"}) {
    const std::string text =
        "MATCH (n) WHERE n.eventId = " + constant + " RETURN n.eventId";
    const auto plan = plan_of(text);
    ASSERT_EQ(plan.scan, query::ScanKind::kIndexEq) << text;
    const auto bucket = horus_->graph().store().index_count(
        plan.scan_key, graph::PropertyValue(std::int64_t{4}));
    ASSERT_TRUE(bucket.has_value());
    EXPECT_EQ(plan.scan_estimate, static_cast<double>(*bucket)) << text;
    const auto explained = engine.explain(text);
    EXPECT_EQ(explained.report.ops.front().estimated_rows,
              explained.report.ops.front().actual_rows)
        << explained.plan_text();
  }
}

TEST_F(PlanShapeTest, InlinePropertiesPlanAsWhereEqualities) {
  const query::QueryEngine engine(horus_->graph(), {});
  const std::string inline_text =
      engine.explain("MATCH (n:EVENT {eventId: 4}) RETURN n.eventId")
          .plan_text();
  EXPECT_EQ(inline_text,
            engine.explain("MATCH (n) WHERE n.eventId = 4 RETURN n.eventId")
                .plan_text());
  EXPECT_NE(inline_text.find("scan[index-eq eventId = 4"), std::string::npos)
      << inline_text;
  // An inline property joins the WHERE conjuncts, ahead of them: the host
  // equality becomes the scan, the label and the WHERE range stay checks.
  const auto plan = plan_of(
      "MATCH (n:SND {host: \"svc-host0\"}) WHERE n.lamportLogicalTime >= 2 "
      "RETURN n.eventId");
  ASSERT_TRUE(plan.planned);
  EXPECT_EQ(plan.scan, query::ScanKind::kIndexEq);
  EXPECT_EQ(plan.scan_key_name, "host");
  EXPECT_TRUE(plan.check_label);
  EXPECT_EQ(plan.predicates.size() + plan.predicates_pushed, 2u);
}

}  // namespace
}  // namespace horus
