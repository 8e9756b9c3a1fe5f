// Differential oracle for the parallel causality engine.
//
// Every parallel code path added for the Fig. 7/8 scaling runs is checked
// against its sequential twin on seeded random inputs, and the Q2 engine
// against the clock-free reachability cut (q2_oracle.h):
//
//  - get_causal_graph with threads = 2/8 vs. the sequential engine,
//    node-for-node and edge-for-edge, and the sequential answer vs. the
//    node set and induced edges of graph::between_subgraph, on
//    SimKernel-style executions;
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
#include "q2_oracle.h"
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

std::unique_ptr<Horus> build(std::vector<Event> events) {
  auto horus = std::make_unique<Horus>();
  for (Event& e : events) horus->ingest(std::move(e));
  horus->seal();
  return horus;
}

// ---------------------------------------------------------------------------
// Causal engine: sequential vs. parallel vs. the reachability cut, on
// SimKernel executions.
// ---------------------------------------------------------------------------

// gtest names each instance after the raw bytes of its parameter; every
// field is 8 bytes wide so there is no uninitialised padding in the name.
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
  const graph::GraphStore& store = horus->graph().store();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  std::mt19937_64 rng(param.seed * 6151 + 4);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);

  int compared = 0;
  for (int i = 0; i < 200 && compared < 60; ++i) {
    graph::NodeId a = pick(rng);
    graph::NodeId b = pick(rng);
    const auto want = sequential.get_causal_graph(a, b);
    ASSERT_TRUE(MatchesReachabilityCut(store, want, a, b))
        << "seed=" << param.seed;
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
  const graph::GraphStore& store = horus->graph().store();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  std::mt19937_64 rng(param.seed * 389 + 5);
  std::uniform_int_distribution<graph::NodeId> pick(0, n - 1);
  for (int i = 0; i < 40; ++i) {
    const graph::NodeId a = pick(rng);
    const graph::NodeId b = pick(rng);
    const auto want = sequential.get_causal_graph(a, b, /*only_logs=*/true);
    const auto got = parallel.get_causal_graph(a, b, /*only_logs=*/true);
    ASSERT_EQ(got.nodes, want.nodes);
    ASSERT_EQ(got.edges, want.edges);
    ASSERT_TRUE(MatchesReachabilityCut(store, want, a, b, /*only_logs=*/true))
        << "seed=" << param.seed;
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
  const graph::GraphStore& store = horus->graph().store();
  const auto n = static_cast<graph::NodeId>(store.node_count());
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
    ASSERT_TRUE(MatchesReachabilityCut(store, want, a, b));
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
