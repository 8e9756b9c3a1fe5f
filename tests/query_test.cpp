#include "query/evaluator.h"

#include <gtest/gtest.h>

#include <functional>

#include <limits>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/horus.h"
#include "gen/synthetic.h"
#include "query/parser.h"
#include "query/procedures.h"

namespace horus::query {
namespace {

Event log_event(std::uint64_t id, const ThreadRef& thread,
                const std::string& service, TimeNs ts, std::string message) {
  Event e;
  e.id = EventId{id};
  e.type = EventType::kLog;
  e.thread = thread;
  e.service = service;
  e.timestamp = ts;
  e.payload = LogPayload{std::move(message), "test"};
  return e;
}

/// Small fixture graph: two services exchanging one message, with logs.
class QueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const ThreadRef t1{"h1", 1, 1};
    const ThreadRef t2{"h2", 2, 1};
    const ChannelId chan{{"10.0.0.1", 100}, {"10.0.0.2", 80}};

    horus_.ingest(log_event(1, t1, "Launcher", 10, "request start"));
    Event snd;
    snd.id = EventId{2};
    snd.type = EventType::kSnd;
    snd.thread = t1;
    snd.service = "Launcher";
    snd.timestamp = 20;
    snd.payload = NetPayload{chan, 0, 64};
    horus_.ingest(snd);

    Event rcv = snd;
    rcv.id = EventId{3};
    rcv.type = EventType::kRcv;
    rcv.thread = t2;
    rcv.service = "Payment";
    rcv.timestamp = 5;  // skewed clock: earlier stamp, later causally
    horus_.ingest(rcv);
    horus_.ingest(log_event(4, t2, "Payment", 6, "handling payment"));
    horus_.ingest(log_event(5, t2, "Payment", 7, "Response: \"false\""));
    horus_.ingest(log_event(6, t1, "Launcher", 30, "concurrent other"));
    horus_.seal();

    engine_ = std::make_unique<QueryEngine>(horus_.graph());
    register_horus_procedures(*engine_, horus_.graph(), horus_.clocks());
  }

  [[nodiscard]] QueryResult run(const std::string& text) const {
    return engine_->run(text);
  }

  Horus horus_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(QueryFixture, MatchByLabel) {
  const auto r = run("MATCH (n:LOG) RETURN n.message ORDER BY n.message");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"n.message"}));
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].as_string(), "Response: \"false\"");
}

TEST_F(QueryFixture, MatchWithInlineProperties) {
  const auto r = run("MATCH (n:LOG {host: 'Payment'}) RETURN n.message "
                     "ORDER BY n.timestamp");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].as_string(), "handling payment");
}

TEST_F(QueryFixture, EventLabelMatchesAnyNode) {
  const auto r = run("MATCH (n:EVENT) RETURN count(*) AS total");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int(), 6);
}

TEST_F(QueryFixture, MatchEdgePattern) {
  const auto r =
      run("MATCH (a:SND)-->(b:RCV) RETURN a.host AS src, b.host AS dst");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_string(), "Launcher");
  EXPECT_EQ(r.rows[0][1].as_string(), "Payment");
}

TEST_F(QueryFixture, MatchTypedEdge) {
  EXPECT_EQ(run("MATCH (a:SND)-[:HB]->(b) RETURN b.eventId").rows.size(), 1u);
  EXPECT_EQ(run("MATCH (a:SND)-[:NEXT]->(b) RETURN b.eventId").rows.size(),
            1u);
  EXPECT_EQ(run("MATCH (a:SND)-[:NOPE]->(b) RETURN b.eventId").rows.size(),
            0u);
}

TEST_F(QueryFixture, MatchReverseArrow) {
  const auto r = run("MATCH (b:RCV)<--(a:SND) RETURN a.eventId");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int(), 2);
}

TEST_F(QueryFixture, WhereContains) {
  const auto r = run("MATCH (n:LOG) WHERE n.message CONTAINS 'false' "
                     "RETURN n.message");
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(QueryFixture, WhereComparisonAndLogic) {
  const auto r = run(
      "MATCH (n:LOG) WHERE n.timestamp > 5 AND NOT n.host = 'Launcher' "
      "RETURN n.message ORDER BY n.timestamp");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].as_string(), "handling payment");
}

TEST_F(QueryFixture, WithAggregation) {
  const auto r = run(
      "MATCH (n:LOG) WITH n.host AS host, count(*) AS cnt "
      "RETURN host, cnt ORDER BY host");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].as_string(), "Launcher");
  EXPECT_EQ(r.rows[0][1].as_int(), 2);
  EXPECT_EQ(r.rows[1][0].as_string(), "Payment");
  EXPECT_EQ(r.rows[1][1].as_int(), 2);
}

TEST_F(QueryFixture, MinMaxCollect) {
  const auto r = run(
      "MATCH (n:LOG) RETURN min(n.timestamp) AS lo, max(n.timestamp) AS hi, "
      "collect(n.message) AS msgs");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int(), 6);
  EXPECT_EQ(r.rows[0][1].as_int(), 30);
  EXPECT_EQ(r.rows[0][2].as_list().size(), 4u);
}

TEST_F(QueryFixture, AggregateOverNoRowsReturnsOneRow) {
  const auto r = run(
      "MATCH (n:LOG {host: 'no-such-host'}) RETURN count(*) AS c, "
      "count(n) AS cn, sum(n.timestamp) AS s, collect(n.message) AS msgs, "
      "min(n.timestamp) AS lo, max(n.timestamp) AS hi, avg(n.timestamp) AS a");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value(0));
  EXPECT_EQ(r.rows[0][1], Value(0));
  EXPECT_EQ(r.rows[0][2], Value(0));
  EXPECT_EQ(r.rows[0][3], Value(ValueList{}));
  EXPECT_TRUE(r.rows[0][4].is_null());
  EXPECT_TRUE(r.rows[0][5].is_null());
  EXPECT_TRUE(r.rows[0][6].is_null());
  // A grouped projection has no group without a row.
  EXPECT_TRUE(run("MATCH (n:NOSUCH) RETURN n.host AS h, count(*) AS c")
                  .rows.empty());
  EXPECT_TRUE(run("MATCH (n:NOSUCH) WITH count(*) AS c WHERE c > 0 RETURN c")
                  .rows.empty());
  // An item or sort key that reads a variable outside its aggregates has no
  // row to read it from: no row, as with a grouped projection.
  EXPECT_TRUE(run("MATCH (n:NOSUCH) RETURN n.eventId + count(*) AS x")
                  .rows.empty());
  EXPECT_TRUE(
      run("MATCH (n:NOSUCH) RETURN count(*) AS c ORDER BY n.eventId")
          .rows.empty());
  EXPECT_TRUE(run("MATCH (n:LOG {host: 'no-such-host'}) "
                  "RETURN n.timestamp + count(*) AS x")
                  .rows.empty());
  // Sorting on an alias keeps the row.
  const auto sorted =
      run("MATCH (n:NOSUCH) RETURN count(*) AS c ORDER BY c DESC");
  ASSERT_EQ(sorted.rows.size(), 1u);
  EXPECT_EQ(sorted.rows[0][0], Value(0));
}

TEST_F(QueryFixture, UnwindExplodesLists) {
  const auto r = run(
      "MATCH (n:LOG {host: 'Payment'}) WITH collect(n.message) AS msgs "
      "UNWIND msgs AS m RETURN m ORDER BY m");
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(QueryFixture, OrderByDescAndLimit) {
  const auto r = run(
      "MATCH (n:LOG) RETURN n.timestamp AS ts ORDER BY ts DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].as_int(), 30);
  EXPECT_EQ(r.rows[1][0].as_int(), 10);
}

TEST_F(QueryFixture, DistinctRemovesDuplicates) {
  const auto r = run("MATCH (n:LOG) RETURN DISTINCT n.host AS host");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(QueryFixture, HappensBeforeProcedure) {
  const auto r = run(
      "MATCH (a:SND), (b:RCV) "
      "CALL horus.happensBefore(a, b) YIELD result RETURN result");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].as_bool());
}

TEST_F(QueryFixture, GetCausalGraphProcedure) {
  // From "request start" (eventId 1) to the failure log (eventId 5):
  // the causal path holds 5 events; the concurrent Launcher log (id 6) is
  // excluded.
  const auto r = run(
      "MATCH (a:LOG {message: 'request start'}), "
      "(b:LOG {message: 'Response: \"false\"'}) "
      "CALL horus.getCausalGraph(a, b, FALSE) YIELD node "
      "RETURN node.eventId AS id ORDER BY node.lamportLogicalTime");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].as_int(), 1);
  EXPECT_EQ(r.rows.back()[0].as_int(), 5);
  for (const auto& row : r.rows) EXPECT_NE(row[0].as_int(), 6);
}

TEST_F(QueryFixture, GetCausalGraphOnlyLogs) {
  const auto r = run(
      "MATCH (a:LOG {message: 'request start'}), "
      "(b:LOG {message: 'Response: \"false\"'}) "
      "CALL horus.getCausalGraph(a, b, TRUE) YIELD node "
      "RETURN label(node) AS l");
  ASSERT_EQ(r.rows.size(), 3u);  // SND/RCV dropped, LOG endpoints kept
  for (const auto& row : r.rows) EXPECT_EQ(row[0].as_string(), "LOG");
}

TEST_F(QueryFixture, GetCausalEdgesProcedure) {
  const auto r = run(
      "MATCH (a:LOG {message: 'request start'}), "
      "(b:LOG {message: 'Response: \"false\"'}) "
      "CALL horus.getCausalEdges(a, b) YIELD from, to "
      "RETURN from.eventId AS x, to.eventId AS y ORDER BY x, y");
  // Chain 1 -> 2 -> 3 -> 4 -> 5: four induced edges.
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].as_int(), 1);
  EXPECT_EQ(r.rows[0][1].as_int(), 2);
  EXPECT_EQ(r.rows.back()[0].as_int(), 4);
  EXPECT_EQ(r.rows.back()[1].as_int(), 5);
}

// Unary minus before a literal or a parenthesized expression; 2^63 parses
// only negated, as INT64_MIN.
TEST_F(QueryFixture, UnaryMinusNegatesLiteralsAndParentheses) {
  const auto all = run(
      "MATCH (n) WHERE n.lamportLogicalTime > -1 RETURN count(*) AS c");
  ASSERT_EQ(all.rows.size(), 1u);
  EXPECT_EQ(all.rows[0][0].as_int(), 6);
  const auto r = run(
      "MATCH (n {eventId: 1}) RETURN -9223372036854775808 AS m, "
      "-(2 + 3) AS x, 1 - -2 AS y, -2.5 AS f, 2 * -3 AS p, "
      "-(n.timestamp) AS t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.rows[0][1].as_int(), -5);
  EXPECT_EQ(r.rows[0][2].as_int(), 3);
  EXPECT_DOUBLE_EQ(r.rows[0][3].as_number(), -2.5);
  EXPECT_EQ(r.rows[0][4].as_int(), -6);
  EXPECT_EQ(r.rows[0][5].as_int(), -10);
  EXPECT_EQ(run("MATCH (n {eventId: -1}) RETURN n").rows.size(), 0u);
  // Out of range, or minus before something else.
  for (const char* text :
       {"MATCH (n) RETURN 9223372036854775808 AS m",
        "MATCH (n) RETURN 99999999999999999999 AS m",
        "MATCH (n) RETURN -99999999999999999999 AS m",
        "MATCH (n) RETURN n LIMIT 9223372036854775808",
        "MATCH (n) RETURN -n.timestamp AS t",
        "MATCH (n) RETURN -(-9223372036854775808) AS m"}) {
    EXPECT_THROW((void)run(text), QueryError) << text;
  }
}

/// The QueryError message of `text`, or "" when it runs.
std::string error_of(const std::function<query::QueryResult()>& run_it) {
  try {
    (void)run_it();
  } catch (const QueryError& e) {
    return e.what();
  }
  return "";
}

TEST_F(QueryFixture, IntegerAdditionOverflowFailsTyped) {
  EXPECT_EQ(run("MATCH (n {eventId: 5}) RETURN 9223372036854775806 + 1 AS x")
                .rows[0][0]
                .as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_NE(error_of([&] {
              return run("MATCH (n {eventId: 5}) "
                         "RETURN 9223372036854775807 + 1 AS x");
            }).find("integer overflow in '+'"),
            std::string::npos);
}

TEST_F(QueryFixture, IntegerSubtractionOverflowFailsTyped) {
  EXPECT_EQ(run("MATCH (n {eventId: 5}) RETURN -9223372036854775807 - 1 AS x")
                .rows[0][0]
                .as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_NE(error_of([&] {
              return run("MATCH (n {eventId: 5}) "
                         "RETURN -9223372036854775808 - 1 AS x");
            }).find("integer overflow in '-'"),
            std::string::npos);
}

TEST_F(QueryFixture, IntegerMultiplicationOverflowFailsTyped) {
  EXPECT_EQ(run("MATCH (n {eventId: 5}) RETURN 4611686018427387903 * 2 AS x")
                .rows[0][0]
                .as_int(),
            std::numeric_limits<std::int64_t>::max() - 1);
  EXPECT_NE(error_of([&] {
              return run("MATCH (n {eventId: 5}) "
                         "RETURN 4611686018427387904 * 4 AS x");
            }).find("integer overflow in '*'"),
            std::string::npos);
}

TEST_F(QueryFixture, IntegerDivisionOverflowFailsTyped) {
  // INT64_MIN / -1 traps with SIGFPE unless checked.
  EXPECT_EQ(run("MATCH (n {eventId: 5}) RETURN -9223372036854775808 / 1 AS x")
                .rows[0][0]
                .as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_NE(error_of([&] {
              return run("MATCH (n {eventId: 5}) "
                         "RETURN -9223372036854775808 / -1 AS x");
            }).find("integer overflow in '/'"),
            std::string::npos);
}

TEST_F(QueryFixture, IntegerModuloOverflowFailsTyped) {
  // INT64_MIN % -1 traps like the division it is computed by.
  EXPECT_EQ(run("MATCH (n {eventId: 5}) RETURN -9223372036854775808 % 7 AS x")
                .rows[0][0]
                .as_int(),
            std::numeric_limits<std::int64_t>::min() % 7);
  EXPECT_NE(error_of([&] {
              return run("MATCH (n {eventId: 5}) "
                         "RETURN -9223372036854775808 % -1 AS x");
            }).find("integer overflow in '%'"),
            std::string::npos);
}

TEST_F(QueryFixture, IntegerSumOverflowFailsTyped) {
  EXPECT_NE(error_of([&] {
              return run("MATCH (n {eventId: 5}) "
                         "UNWIND [9223372036854775807, 1] AS x "
                         "RETURN sum(x) AS s");
            }).find("integer overflow in sum"),
            std::string::npos);
}

TEST_F(QueryFixture, MixedSumPastTheIntegerRangeIsADouble) {
  // A double makes the sum a double, so its integer part may leave the
  // int64 range, before or after the double arrives.
  for (const char* list : {"[9223372036854775807, 1, 0.5]",
                           "[0.5, 9223372036854775807, 1]"}) {
    const auto r = run(std::string("MATCH (n {eventId: 5}) UNWIND ") + list +
                       " AS x RETURN sum(x) AS s");
    ASSERT_EQ(r.rows.size(), 1u) << list;
    ASSERT_TRUE(r.rows[0][0].is_double()) << list;
    EXPECT_DOUBLE_EQ(r.rows[0][0].as_number(), 9223372036854775808.5) << list;
  }
}

TEST_F(QueryFixture, HopBoundsPastThirtyTwoBitsAreRejected) {
  // A bound narrowed unchecked to 32 bits would run [*1..4294967298] as
  // [*1..2].
  const auto two = run(
      "MATCH (a:LOG {message: 'request start'})-[*1..2]->(b) "
      "RETURN count(*) AS c");
  const auto widest = run(
      "MATCH (a:LOG {message: 'request start'})-[*1..4294967295]->(b) "
      "RETURN count(*) AS c");
  ASSERT_EQ(widest.rows.size(), 1u);
  EXPECT_EQ(widest.rows[0][0].as_int(), 5);  // everything reachable
  EXPECT_EQ(two.rows[0][0].as_int(), 3);
  EXPECT_NE(error_of([&] {
              return run("MATCH (a:LOG {message: 'request start'})"
                         "-[*1..4294967298]->(b) RETURN count(*) AS c");
            }).find("hop upper bound 4294967298 is out of range"),
            std::string::npos);
  EXPECT_NE(error_of([&] {
              return run("MATCH (a)-[*4294967296]->(b) RETURN count(*) AS c");
            }).find("hop lower bound 4294967296 is out of range"),
            std::string::npos);
}

TEST_F(QueryFixture, ProcedureNodeIdsOutOfRangeAreRejected) {
  // Node ids are 32-bit: 2^32 used to wrap to node 0 (so it "happened
  // before" node 1 exactly as node 0 does), and -1 to the kNoNode sentinel.
  EXPECT_TRUE(run("CALL horus.happensBefore(0, 1) YIELD result RETURN result")
                  .rows[0][0]
                  .as_bool());
  const std::vector<std::pair<std::string, std::string>> calls = {
      {"horus.happensBefore", "result"},
      {"horus.getCausalGraph", "node"},
      {"horus.getCausalEdges", "from"}};
  // (argument expression, the id it evaluates to)
  const std::vector<std::pair<std::string, std::string>> ids = {
      {"4294967296", "4294967296"},
      {"4294967295", "4294967295"},
      {"-1", "-1"}};
  for (const auto& [proc, yield] : calls) {
    for (const auto& [expr, id] : ids) {
      for (const std::string& args : {expr + ", 1", "0, " + expr}) {
        const std::string text = "CALL " + proc + "(" + args + ") YIELD " +
                                 yield + " RETURN " + yield;
        try {
          (void)run(text);
          ADD_FAILURE() << "accepted: " << text;
        } catch (const QueryError& e) {
          EXPECT_NE(std::string(e.what()).find(proc + ": node id " + id),
                    std::string::npos)
              << e.what();
        }
      }
    }
  }
}

TEST_F(QueryFixture, YieldSubsetSelectsColumns) {
  const auto r = run(
      "MATCH (a:LOG {message: 'request start'}), "
      "(b:LOG {message: 'Response: \"false\"'}) "
      "CALL horus.getCausalEdges(a, b) YIELD to "
      "RETURN to.eventId AS y ORDER BY y");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"y"}));
}

TEST_F(QueryFixture, MultiClausePipelineWithWith) {
  // Shape of the paper's Fig. 4a query: find boundaries, then refine.
  const auto r = run(
      "MATCH (reqSnd:SND {host: 'Launcher'})-->(:RCV {host: 'Payment'}), "
      "(reqError:LOG {host: 'Payment'}) "
      "WHERE reqError.message CONTAINS 'false' "
      "AND reqError.lamportLogicalTime > reqSnd.lamportLogicalTime "
      "WITH reqSnd.lamportLogicalTime AS reqSndTime, "
      "min(reqError.lamportLogicalTime) AS reqErrorTime "
      "MATCH (a:EVENT {lamportLogicalTime: reqSndTime}), "
      "(b:EVENT {lamportLogicalTime: reqErrorTime}) "
      "CALL horus.getCausalGraph(a, b, TRUE) YIELD node "
      "RETURN collect(node.message) AS logs");
  ASSERT_EQ(r.rows.size(), 1u);
  const auto& logs = r.rows[0][0].as_list();
  ASSERT_EQ(logs.size(), 2u);  // SND/RCV endpoints have no message
}

TEST_F(QueryFixture, ScalarFunctions) {
  const auto r = run(
      "MATCH (n:LOG {message: 'request start'}) "
      "RETURN size(n.message) AS len, toString(n.timestamp) AS ts, "
      "id(n) AS nid, label(n) AS lbl, coalesce(n.missing, 'dflt') AS c");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int(), 13);
  EXPECT_EQ(r.rows[0][1].as_string(), "10");
  EXPECT_EQ(r.rows[0][3].as_string(), "LOG");
  EXPECT_EQ(r.rows[0][4].as_string(), "dflt");
}

TEST_F(QueryFixture, ListLiteralsAndIn) {
  const auto r = run(
      "MATCH (n:LOG) WHERE n.host IN ['Payment', 'Ghost'] "
      "RETURN count(*) AS c");
  EXPECT_EQ(r.rows[0][0].as_int(), 2);
}

TEST_F(QueryFixture, ArithmeticAndStringConcat) {
  const auto r = run("MATCH (n:LOG {message: 'request start'}) "
                     "RETURN n.timestamp + 5 AS t, n.host + '!' AS h");
  EXPECT_EQ(r.rows[0][0].as_int(), 15);
  EXPECT_EQ(r.rows[0][1].as_string(), "Launcher!");
}

TEST_F(QueryFixture, VariableLengthUnbounded) {
  // Everything reachable from "request start" (event 1) via any path:
  // 2 and 6 along the Launcher timeline, 3, 4, 5 across the message.
  const auto r = run(
      "MATCH (a:LOG {message: 'request start'})-[*]->(b) "
      "RETURN b.eventId AS id ORDER BY id");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].as_int(), 2);
  EXPECT_EQ(r.rows[4][0].as_int(), 6);
}

TEST_F(QueryFixture, VariableLengthBounded) {
  const auto two = run(
      "MATCH (a:LOG {message: 'request start'})-[*1..2]->(b) "
      "RETURN b.eventId AS id ORDER BY id");
  ASSERT_EQ(two.rows.size(), 3u);  // depth 1: {2}; depth 2: {3, 6}
  EXPECT_EQ(two.rows[0][0].as_int(), 2);
  EXPECT_EQ(two.rows[1][0].as_int(), 3);
  EXPECT_EQ(two.rows[2][0].as_int(), 6);

  const auto exact = run(
      "MATCH (a:LOG {message: 'request start'})-[*2]->(b) "
      "RETURN b.eventId AS id ORDER BY id");
  ASSERT_EQ(exact.rows.size(), 2u);  // {3, 6}
  EXPECT_EQ(exact.rows[0][0].as_int(), 3);
  EXPECT_EQ(exact.rows[1][0].as_int(), 6);

  const auto from_two = run(
      "MATCH (a:LOG {message: 'request start'})-[*2..]->(b) "
      "RETURN b.eventId AS id ORDER BY id");
  ASSERT_EQ(from_two.rows.size(), 4u);  // 3, 4, 5, 6
}

TEST_F(QueryFixture, VariableLengthTypedAndReverse) {
  // Only NEXT hops from the SND stay inside the Launcher timeline.
  const auto r = run("MATCH (a:SND)-[:NEXT*]->(b) RETURN b.eventId AS id");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int(), 6);

  const auto rev = run(
      "MATCH (b:LOG {message: 'Response: \"false\"'})<-[*]-(a) "
      "RETURN a.eventId AS id ORDER BY id");
  ASSERT_EQ(rev.rows.size(), 4u);  // 1, 2, 3, 4 all reach event 5
}

TEST_F(QueryFixture, QueryParameters) {
  query::QueryParams params;
  params.emplace("who", Value("Payment"));
  params.emplace("cutoff", Value(std::int64_t{6}));
  const auto r = engine_->run(
      "MATCH (n:LOG {host: $who}) WHERE n.timestamp > $cutoff "
      "RETURN n.message AS m",
      params);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_string(), "Response: \"false\"");
  EXPECT_THROW(run("MATCH (n:LOG {host: $missing}) RETURN n"), QueryError);
}

TEST_F(QueryFixture, ReturnStarPassesAllColumns) {
  const auto r = run(
      "MATCH (a:SND)-->(b:RCV) WITH a.eventId AS x, b.eventId AS y "
      "RETURN *");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int(), 2);
  EXPECT_EQ(r.rows[0][1].as_int(), 3);
}

TEST_F(QueryFixture, MultiplicativeArithmetic) {
  const auto r = run(
      "MATCH (n:LOG {message: 'request start'}) "
      "RETURN n.timestamp * 3 AS a, n.timestamp / 2 AS b, "
      "n.timestamp % 4 AS c, (n.timestamp + 2) * 2 AS d");
  EXPECT_EQ(r.rows[0][0].as_int(), 30);
  EXPECT_EQ(r.rows[0][1].as_int(), 5);
  EXPECT_EQ(r.rows[0][2].as_int(), 2);
  EXPECT_EQ(r.rows[0][3].as_int(), 24);
  EXPECT_THROW(run("MATCH (n:LOG) RETURN n.timestamp / 0"), QueryError);
}

TEST_F(QueryFixture, StringFunctions) {
  const auto r = run(
      "MATCH (n:LOG {message: 'request start'}) "
      "RETURN toUpper(n.host) AS u, toLower(n.host) AS l, "
      "substring(n.message, 8) AS sub, substring(n.message, 0, 7) AS pre, "
      "replace(n.message, ' ', '_') AS rep, trim('  x  ') AS t, "
      "abs(0 - 5) AS a, toInteger('42') AS i, size(split(n.message, ' ')) "
      "AS parts");
  const auto& row = r.rows.at(0);
  EXPECT_EQ(row[0].as_string(), "LAUNCHER");
  EXPECT_EQ(row[1].as_string(), "launcher");
  EXPECT_EQ(row[2].as_string(), "start");
  EXPECT_EQ(row[3].as_string(), "request");
  EXPECT_EQ(row[4].as_string(), "request_start");
  EXPECT_EQ(row[5].as_string(), "x");
  EXPECT_EQ(row[6].as_int(), 5);
  EXPECT_EQ(row[7].as_int(), 42);
  EXPECT_EQ(row[8].as_int(), 2);
}

TEST_F(QueryFixture, CommentsAreIgnored) {
  const auto r = run(
      "// find all payment logs\n"
      "MATCH (n:LOG {host: 'Payment'}) RETURN count(*) AS c");
  EXPECT_EQ(r.rows[0][0].as_int(), 2);
}

TEST_F(QueryFixture, ToTableRendersHeadersAndRows) {
  const auto r = run("MATCH (n:LOG {host: 'Payment'}) RETURN n.host AS host "
                     "LIMIT 1");
  const std::string table = r.to_table();
  EXPECT_NE(table.find("host"), std::string::npos);
  EXPECT_NE(table.find("Payment"), std::string::npos);
}

TEST_F(QueryFixture, ErrorsAreReported) {
  EXPECT_THROW(run(""), QueryError);
  EXPECT_THROW(run("MATCH (n RETURN n"), QueryError);
  EXPECT_THROW(run("FROB (n)"), QueryError);
  EXPECT_THROW(run("MATCH (n) RETURN undefined_var.x"), QueryError);
  EXPECT_THROW(run("MATCH (n) RETURN nope(n)"), QueryError);
  EXPECT_THROW(run("CALL horus.nope() YIELD x RETURN x"), QueryError);
  EXPECT_THROW(run("MATCH (a:SND) CALL horus.happensBefore(a) YIELD result "
                   "RETURN result"),
               QueryError);
  EXPECT_THROW(run("MATCH (a:SND), (b:RCV) CALL horus.happensBefore(a, b) "
                   "YIELD bogus RETURN bogus"),
               QueryError);
}

TEST(QueryLexerTest, TokenizesOperators) {
  const auto tokens = tokenize("a --> b <-- c <> <= >= = < > + - [ ] { }");
  EXPECT_GT(tokens.size(), 10u);
  EXPECT_THROW(tokenize("$"), QueryError);
  EXPECT_THROW(tokenize("'unterminated"), QueryError);
}

TEST(QueryLexerTest, KeywordsAreCaseInsensitive) {
  const auto tokens = tokenize("match MATCH mAtCh");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(tokens[i].kind, TokenKind::kKeyword);
    EXPECT_EQ(tokens[i].text, "MATCH");
  }
}

TEST(QueryOnSyntheticTest, CountsByEventType) {
  Horus horus;
  gen::ClientServerOptions options;
  options.num_events = 100;
  for (Event& e : gen::client_server_events(options)) {
    horus.ingest(std::move(e));
  }
  horus.seal();
  QueryEngine engine(horus.graph());
  const auto r = engine.run(
      "MATCH (n:SND) RETURN count(*) AS sends");
  EXPECT_EQ(r.rows[0][0].as_int(), 50);
}

}  // namespace
}  // namespace horus::query
