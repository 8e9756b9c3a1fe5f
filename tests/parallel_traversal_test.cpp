// Differential oracle for the parallel causality engine.
//
// Every parallel code path added for the Fig. 7/8 scaling runs is checked
// against its sequential twin on seeded random inputs:
//
//  - frontier-parallel reachability / between-subgraph vs. the sequential
//    traversals, on random DAGs built directly in a GraphStore;
//  - get_causal_graph with threads = 2/8 vs. the sequential engine, and vs.
//    the independent traversal-based implementation (pruned double flood),
//    node-for-node and edge-for-edge, on SimKernel-style executions;
//  - the full query front-end (MATCH/WHERE/CALL) with a parallel evaluator
//    vs. the sequential one, row-for-row.
//
// The tests run with min_parallel_items = 1 and a private 8-worker pool, so
// the parallel paths genuinely execute (the defaults would keep graphs this
// small sequential). Ordering must match exactly — the determinism contract
// is chunk-order concatenation, not "same set".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <type_traits>
#include <vector>

#include "common/thread_pool.h"
#include "core/causal_query.h"
#include "core/horus.h"
#include "gen/synthetic.h"
#include "graph/traversal.h"
#include "query/evaluator.h"
#include "query/procedures.h"

namespace horus {
namespace {

/// One pool shared by all tests in this binary: 8 workers regardless of the
/// host's core count, so the interleavings are real even on tiny CI boxes.
ThreadPool& test_pool() {
  static ThreadPool pool(8);
  return pool;
}

QueryOptions parallel_options(unsigned threads) {
  return QueryOptions{
      .threads = threads, .pool = &test_pool(), .min_parallel_items = 1};
}

graph::ParallelOptions traversal_options(unsigned threads) {
  // Tiny grain so even 100-node frontiers split into many chunks.
  return graph::ParallelOptions{
      .threads = threads, .pool = &test_pool(), .grain = 8};
}

/// Random DAG: `n` nodes, edges only forward (i -> j, i < j), so node id
/// order is a topological order and floods always terminate.
std::unique_ptr<graph::GraphStore> random_dag(std::size_t n, double edge_prob,
                                              std::uint64_t seed) {
  auto store = std::make_unique<graph::GraphStore>();
  graph::GraphStore& g = *store;
  for (std::size_t i = 0; i < n; ++i) g.add_node("E", {});
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> hop(1, 8);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    // A spine edge keeps the graph connected-ish; extra short-range edges
    // create diamonds (multiple paths), the interesting case for floods.
    if (coin(rng) < 0.8) {
      g.add_edge(static_cast<graph::NodeId>(i),
                 static_cast<graph::NodeId>(i + 1), "NEXT");
    }
    for (int k = 0; k < 3; ++k) {
      if (coin(rng) < edge_prob) {
        const std::size_t j = std::min(n - 1, i + hop(rng));
        if (j > i) {
          g.add_edge(static_cast<graph::NodeId>(i),
                     static_cast<graph::NodeId>(j), "NEXT");
        }
      }
    }
  }
  return store;
}

std::unique_ptr<Horus> build(std::vector<Event> events) {
  auto horus = std::make_unique<Horus>();
  for (Event& e : events) horus->ingest(std::move(e));
  horus->seal();
  return horus;
}

// ---------------------------------------------------------------------------
// Traversal layer: random DAGs, sequential vs. frontier-parallel.
// ---------------------------------------------------------------------------

// gtest names each instance after the raw bytes of its parameter; every
// field is 8 bytes wide so there is no uninitialised padding in the name.
struct DagCase {
  std::size_t nodes;
  std::uint64_t seed;
  std::int64_t pairs;  ///< random (from, to) pairs probed per thread count
};
static_assert(std::has_unique_object_representations_v<DagCase>);

class ParallelTraversalTest : public ::testing::TestWithParam<DagCase> {};

TEST_P(ParallelTraversalTest, ReachableMatchesSequential) {
  const auto& param = GetParam();
  const auto store = random_dag(param.nodes, 0.3, param.seed);
  const graph::GraphStore& g = *store;
  const auto n = static_cast<graph::NodeId>(g.node_count());
  std::mt19937_64 rng(param.seed * 7919 + 1);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  for (int i = 0; i < param.pairs; ++i) {
    const graph::NodeId from = pick(rng);
    const graph::NodeId to = pick(rng);
    const bool want = graph::reachable(g, from, to).reachable;
    for (const unsigned threads : {1u, 2u, 8u}) {
      const auto got =
          graph::reachable_parallel(g, from, to, traversal_options(threads));
      ASSERT_EQ(got.reachable, want)
          << "nodes=" << param.nodes << " seed=" << param.seed
          << " pair=" << from << "->" << to << " threads=" << threads;
    }
  }
}

TEST_P(ParallelTraversalTest, BetweenSubgraphMatchesSequential) {
  const auto& param = GetParam();
  const auto store = random_dag(param.nodes, 0.3, param.seed);
  const graph::GraphStore& g = *store;
  const auto n = static_cast<graph::NodeId>(g.node_count());
  std::mt19937_64 rng(param.seed * 104729 + 2);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  for (int i = 0; i < param.pairs; ++i) {
    graph::NodeId from = pick(rng);
    graph::NodeId to = pick(rng);
    if (from > to) std::swap(from, to);  // forward pairs hit non-empty cuts
    const auto want = graph::between_subgraph(g, from, to);
    for (const unsigned threads : {1u, 2u, 8u}) {
      const auto got = graph::between_subgraph_parallel(
          g, from, to, traversal_options(threads));
      // Exact vector equality: order (sorted by id) must match too.
      ASSERT_EQ(got.nodes, want.nodes)
          << "nodes=" << param.nodes << " seed=" << param.seed
          << " pair=" << from << "->" << to << " threads=" << threads;
    }
  }
}

TEST_P(ParallelTraversalTest, FloodSeesSameNodeSetAsReachability) {
  const auto& param = GetParam();
  const auto store = random_dag(param.nodes, 0.3, param.seed);
  const graph::GraphStore& g = *store;
  const auto n = static_cast<graph::NodeId>(g.node_count());
  std::mt19937_64 rng(param.seed * 31 + 3);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  const graph::NodeId start = pick(rng);
  const auto flood =
      graph::flood_parallel(g, start, /*forward=*/true, traversal_options(8));
  std::size_t seen = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    const bool want = graph::reachable(g, start, v).reachable;
    ASSERT_EQ(flood.seen[v] != 0, want) << "start=" << start << " v=" << v;
    seen += flood.seen[v] != 0;
  }
  EXPECT_EQ(flood.visited, seen);
}

INSTANTIATE_TEST_SUITE_P(
    RandomDags, ParallelTraversalTest,
    ::testing::Values(DagCase{100, 1001, 40}, DagCase{100, 1002, 40},
                      DagCase{250, 1003, 30}, DagCase{500, 1004, 30},
                      DagCase{1000, 1005, 20}, DagCase{2500, 1006, 15},
                      DagCase{10'000, 1007, 10}));

// ---------------------------------------------------------------------------
// Causal engine: sequential vs. parallel vs. traversal-based, on SimKernel
// executions.
// ---------------------------------------------------------------------------

// 8-byte fields only, as for DagCase.
struct EngineCase {
  std::int64_t processes;
  std::size_t events_per_process;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<EngineCase>);

class ParallelEngineTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(ParallelEngineTest, GetCausalGraphAgreesAcrossImplementations) {
  const auto& param = GetParam();
  gen::RandomExecutionOptions options;
  options.num_processes = param.processes;
  options.events_per_process = param.events_per_process;
  options.seed = param.seed;
  auto horus = build(gen::random_execution(options));

  const auto sequential = horus->query();
  const auto n =
      static_cast<graph::NodeId>(horus->graph().store().node_count());
  std::mt19937_64 rng(param.seed * 6151 + 4);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);

  int compared = 0;
  for (int i = 0; i < 200 && compared < 60; ++i) {
    graph::NodeId a = pick(rng);
    graph::NodeId b = pick(rng);
    const auto want = sequential.get_causal_graph(a, b);
    // The traversal-based second implementation (independent algorithm).
    const auto traversal = sequential.get_causal_graph_traversal(a, b);
    ASSERT_EQ(traversal.nodes, want.nodes)
        << "seed=" << param.seed << " " << a << "->" << b;
    ASSERT_EQ(traversal.edges, want.edges)
        << "seed=" << param.seed << " " << a << "->" << b;
    for (const unsigned threads : {2u, 8u}) {
      const auto engine = horus->query(parallel_options(threads));
      const auto got = engine.get_causal_graph(a, b);
      ASSERT_EQ(got.nodes, want.nodes)
          << "seed=" << param.seed << " " << a << "->" << b
          << " threads=" << threads;
      ASSERT_EQ(got.edges, want.edges)
          << "seed=" << param.seed << " " << a << "->" << b
          << " threads=" << threads;
      ASSERT_EQ(got.lc_candidates, want.lc_candidates);
      const auto got_traversal = engine.get_causal_graph_traversal(a, b);
      ASSERT_EQ(got_traversal.nodes, want.nodes);
      ASSERT_EQ(got_traversal.edges, want.edges);
    }
    compared += !want.nodes.empty();
  }
  EXPECT_GT(compared, 0) << "no related pairs sampled; weak test";
}

TEST_P(ParallelEngineTest, OnlyLogsFilterAgrees) {
  const auto& param = GetParam();
  gen::RandomExecutionOptions options;
  options.num_processes = param.processes;
  options.events_per_process = param.events_per_process;
  options.seed = param.seed + 100;
  auto horus = build(gen::random_execution(options));

  const auto sequential = horus->query();
  const auto parallel = horus->query(parallel_options(8));
  const auto n =
      static_cast<graph::NodeId>(horus->graph().store().node_count());
  std::mt19937_64 rng(param.seed * 389 + 5);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  for (int i = 0; i < 40; ++i) {
    const graph::NodeId a = pick(rng);
    const graph::NodeId b = pick(rng);
    const auto want = sequential.get_causal_graph(a, b, /*only_logs=*/true);
    const auto got = parallel.get_causal_graph(a, b, /*only_logs=*/true);
    ASSERT_EQ(got.nodes, want.nodes);
    ASSERT_EQ(got.edges, want.edges);
    const auto via_traversal =
        parallel.get_causal_graph_traversal(a, b, /*only_logs=*/true);
    ASSERT_EQ(via_traversal.nodes, want.nodes);
    ASSERT_EQ(via_traversal.edges, want.edges);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomExecutions, ParallelEngineTest,
    ::testing::Values(EngineCase{3, 40, 51}, EngineCase{5, 30, 52},
                      EngineCase{8, 20, 53}, EngineCase{4, 100, 54},
                      EngineCase{6, 60, 55}, EngineCase{10, 50, 56}));

TEST(ParallelEngineTest, ClientServerLadder10kEvents) {
  // The bench workload shape at test-friendly scale: a long two-process
  // ladder where the LC range scan returns thousands of candidates.
  auto horus = build(gen::client_server_events({.num_events = 10'000}));
  const auto sequential = horus->query();
  const auto parallel = horus->query(parallel_options(8));
  const auto n =
      static_cast<graph::NodeId>(horus->graph().store().node_count());
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  for (int i = 0; i < 15; ++i) {
    graph::NodeId a = pick(rng);
    graph::NodeId b = pick(rng);
    if (a > b) std::swap(a, b);
    const auto want = sequential.get_causal_graph(a, b);
    const auto got = parallel.get_causal_graph(a, b);
    ASSERT_EQ(got.nodes, want.nodes) << a << "->" << b;
    ASSERT_EQ(got.edges, want.edges) << a << "->" << b;
    const auto traversal = parallel.get_causal_graph_traversal(a, b);
    ASSERT_EQ(traversal.nodes, want.nodes) << a << "->" << b;
    ASSERT_EQ(traversal.edges, want.edges) << a << "->" << b;
  }
}

// ---------------------------------------------------------------------------
// Query front-end: sequential vs. parallel evaluator, row-for-row.
// ---------------------------------------------------------------------------

void expect_same_result(const query::QueryResult& want,
                        const query::QueryResult& got,
                        const std::string& text) {
  ASSERT_EQ(got.columns, want.columns) << text;
  ASSERT_EQ(got.rows.size(), want.rows.size()) << text;
  // The rendered table covers every cell value in order — the determinism
  // contract is exact row/column ordering, not just the same multiset.
  ASSERT_EQ(got.to_table(), want.to_table()) << text;
}

TEST(ParallelQueryTest, FrontEndRowsMatchSequentialEvaluator) {
  gen::RandomExecutionOptions options;
  options.num_processes = 6;
  options.events_per_process = 80;
  options.seed = 77;
  auto horus = build(gen::random_execution(options));

  query::QueryEngine sequential(horus->graph());
  query::register_horus_procedures(sequential, horus->graph(),
                                   horus->clocks());

  const std::vector<std::string> queries = {
      "MATCH (n:LOG) RETURN count(*) AS logs",
      "MATCH (n:SND) RETURN n.timestamp ORDER BY n.timestamp LIMIT 25",
      "MATCH (a:SND)-[:HB]->(b:RCV) RETURN count(*) AS pairs",
      "MATCH (n) WHERE n.lamportLogicalTime > 20 RETURN count(*) AS late",
      "MATCH (n:RCV) WITH n.host AS h, count(*) AS c "
      "RETURN h, c ORDER BY h",
      "CALL horus.happensBefore(1, 50) YIELD result RETURN result",
      "CALL horus.getCausalGraph(0, 40) YIELD node RETURN count(*) AS nodes",
  };
  for (const unsigned threads : {2u, 8u}) {
    const QueryOptions qopts = parallel_options(threads);
    query::QueryEngine parallel(horus->graph(), qopts);
    query::register_horus_procedures(parallel, horus->graph(), horus->clocks(),
                                     qopts);
    for (const std::string& text : queries) {
      expect_same_result(sequential.run(text), parallel.run(text), text);
    }
  }
}

}  // namespace
}  // namespace horus
