// Query guardrails: QueryLimits/QueryGuard semantics and the cooperative
// cancellation threaded through the evaluator, the Q2 engine and the
// procedures — runaway queries must return well-formed partial results
// with the tripped limit named, never hang or blow up.
#include <algorithm>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/query_guard.h"
#include "core/horus.h"
#include "gen/topology.h"
#include "query/evaluator.h"
#include "query/procedures.h"

namespace horus {
namespace {

// ---------------------------------------------------------------------------
// QueryGuard unit semantics
// ---------------------------------------------------------------------------

TEST(QueryGuardTest, DefaultGuardIsUnlimited) {
  QueryGuard guard;
  EXPECT_FALSE(guard.limits().any());
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_TRUE(guard.admit_visited());
    EXPECT_TRUE(guard.admit_rows());
    EXPECT_TRUE(guard.keep_going());
  }
  EXPECT_FALSE(guard.stopped());
  EXPECT_STREQ(guard.reason(), "");
}

TEST(QueryGuardTest, VisitedBudgetTripsOnceAndStays) {
  QueryGuard guard(QueryLimits{.max_visited_nodes = 100});
  EXPECT_TRUE(guard.admit_visited(100));  // exactly at budget: fine
  EXPECT_FALSE(guard.admit_visited(1));   // one past: trips
  EXPECT_TRUE(guard.stopped());
  EXPECT_EQ(guard.limit_hit(), QueryGuard::Limit::kVisited);
  EXPECT_STREQ(guard.reason(), "max_visited_nodes");
  // Every later admission is refused, including other limit kinds.
  EXPECT_FALSE(guard.admit_rows());
  EXPECT_FALSE(guard.keep_going());
}

TEST(QueryGuardTest, RowBudgetResetsPerSection) {
  QueryGuard guard(QueryLimits{.max_rows = 10});
  EXPECT_TRUE(guard.admit_rows(10));
  guard.begin_rows_section();  // next clause gets a fresh budget
  EXPECT_TRUE(guard.admit_rows(10));
  EXPECT_FALSE(guard.admit_rows(1));
  EXPECT_STREQ(guard.reason(), "max_rows");
  // A tripped guard's row counter no longer resets.
  guard.begin_rows_section();
  EXPECT_FALSE(guard.admit_rows(1));
}

TEST(QueryGuardTest, DeadlineTripsEventually) {
  QueryGuard guard(QueryLimits{.deadline_ms = 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The deadline is checked every few ticks; a short spin must trip it.
  bool admitted = true;
  for (int i = 0; i < 10'000 && admitted; ++i) admitted = guard.keep_going();
  EXPECT_FALSE(admitted);
  EXPECT_STREQ(guard.reason(), "deadline");
}

TEST(QueryGuardTest, CancelIsImmediateAndFirstTripWins) {
  QueryGuard guard(QueryLimits{.max_rows = 5});
  guard.cancel();
  EXPECT_TRUE(guard.stopped());
  EXPECT_STREQ(guard.reason(), "cancelled");
  // Later budget exhaustion cannot re-label the stop reason.
  EXPECT_FALSE(guard.admit_rows(100));
  EXPECT_STREQ(guard.reason(), "cancelled");
}

TEST(QueryGuardTest, ConcurrentAdmissionsTripExactlyOnce) {
  QueryGuard guard(QueryLimits{.max_visited_nodes = 10'000});
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&guard] {
      for (int i = 0; i < 5'000; ++i) {
        if (!guard.admit_visited()) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(guard.stopped());
  EXPECT_EQ(guard.limit_hit(), QueryGuard::Limit::kVisited);
  EXPECT_GE(guard.visited(), 10'000u);
}

// ---------------------------------------------------------------------------
// Guarded engines over an adversarial topology
// ---------------------------------------------------------------------------

/// A dense contention-heavy mesh sealed into the embedded facade.
class GuardedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gen::TopologyOptions options;
    options.requests = 40;
    options.contention_services = 2;
    const std::vector<Event> events = gen::microservice_topology(options);
    for (const Event& e : events) horus_.ingest(e);
    horus_.seal();
    first_ = *horus_.node_of(events.front().id);
    last_ = *horus_.node_of(events.back().id);
  }

  Horus horus_;
  graph::NodeId first_ = 0;
  graph::NodeId last_ = 0;
};

TEST_F(GuardedQueryTest, CausalGraphHonorsVisitedBudget) {
  const CausalGraphResult full = horus_.query().get_causal_graph(first_, last_);
  ASSERT_GT(full.nodes.size(), 50u);

  QueryGuard guard(QueryLimits{.max_visited_nodes = 25});
  QueryOptions options;
  options.guard = &guard;
  const CausalGraphResult partial =
      horus_.query(options).get_causal_graph(first_, last_);
  EXPECT_TRUE(partial.truncated);
  EXPECT_TRUE(guard.stopped());
  EXPECT_STREQ(guard.reason(), "max_visited_nodes");
  EXPECT_LT(partial.nodes.size(), full.nodes.size());
  // The partial answer is a subset of the full one.
  for (const graph::NodeId n : partial.nodes) {
    EXPECT_NE(std::find(full.nodes.begin(), full.nodes.end(), n),
              full.nodes.end());
  }
}

TEST_F(GuardedQueryTest, ParallelEngineStopsCooperatively) {
  QueryGuard guard(QueryLimits{.max_visited_nodes = 25});
  QueryOptions options;
  options.guard = &guard;
  options.threads = 4;
  options.min_parallel_items = 1;
  const CausalGraphResult partial =
      horus_.query(options).get_causal_graph(first_, last_);
  EXPECT_TRUE(partial.truncated);
  EXPECT_TRUE(guard.stopped());
}

TEST_F(GuardedQueryTest, PreCancelledGuardReturnsEmpty) {
  QueryGuard guard;
  guard.cancel();
  QueryOptions options;
  options.guard = &guard;
  const CausalGraphResult result =
      horus_.query(options).get_causal_graph(first_, last_);
  EXPECT_TRUE(result.truncated);
  EXPECT_TRUE(result.nodes.empty());
}

TEST_F(GuardedQueryTest, EvaluatorTruncatesWithReason) {
  QueryGuard guard(QueryLimits{.max_rows = 20});
  QueryOptions options;
  options.guard = &guard;
  query::QueryEngine engine(horus_.graph(), options);
  const query::QueryResult result = engine.run("MATCH (n:RCV) RETURN n");
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.truncated_reason, "max_rows");
}

TEST_F(GuardedQueryTest, UnlimitedEvaluatorIsUntouched) {
  query::QueryEngine engine(horus_.graph(), QueryOptions{});
  const query::QueryResult result = engine.run("MATCH (n:RCV) RETURN n");
  EXPECT_FALSE(result.truncated);
  EXPECT_TRUE(result.truncated_reason.empty());
}

TEST_F(GuardedQueryTest, ProceduresYieldNothingOnceTripped) {
  QueryGuard guard(QueryLimits{.max_visited_nodes = 1});
  QueryOptions options;
  options.guard = &guard;
  query::QueryEngine engine(horus_.graph(), options);
  query::register_horus_procedures(engine, horus_.graph(), horus_.clocks(),
                                   options);
  guard.cancel();
  const query::QueryResult result = engine.run(
      "CALL horus.happensBefore(0, 1) YIELD result RETURN result");
  EXPECT_TRUE(result.rows.empty());
  EXPECT_TRUE(result.truncated);
}

}  // namespace
}  // namespace horus
