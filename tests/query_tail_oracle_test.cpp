// Oracle suite for the query engine's tail clauses (ctest labels `quick` and
// `plan`): WITH/RETURN projection, grouping, aggregates, ORDER BY and CALL
// yields. plan_differential_test's reference runs the same tail clauses as
// the engine, so that suite cannot see a defect in them; here every answer
// is checked against values computed straight from the store instead — the
// Fig. 4a CALL against tests/q2_oracle.h's reachability cut, host counts
// and Lamport windows against a scan of the stored properties — over chaos
// topologies, on the engine and on the brute-force reference of
// tests/query_reference.h, sequential and fanned out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/horus.h"
#include "gen/chaos.h"
#include "gen/topology.h"
#include "query/evaluator.h"
#include "query/procedures.h"
#include "q2_oracle.h"
#include "query_reference.h"

namespace horus {
namespace {

/// One way of answering a query: an engine, or the reference over it.
struct Arm {
  std::unique_ptr<query::QueryEngine> engine;
  bool reference = false;

  [[nodiscard]] query::QueryResult run(const std::string& text) const {
    return reference ? query::reference::run(*engine, text)
                     : engine->run(text);
  }
};

struct Engines {
  std::vector<std::pair<std::string, Arm>> all;
};

/// The arms every query runs on: the engine and the reference, one thread
/// and four (with fan-out forced on these small graphs).
Engines engines_for(const Horus& h) {
  Engines out;
  for (const bool reference : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      QueryOptions options;
      options.threads = threads;
      options.min_parallel_items = 2;
      auto engine = std::make_unique<query::QueryEngine>(h.graph(), options);
      query::register_horus_procedures(*engine, h.graph(), h.clocks(),
                                       options);
      out.all.emplace_back((reference ? "reference/t" : "engine/t") +
                               std::to_string(threads),
                           Arm{std::move(engine), reference});
    }
  }
  return out;
}

std::int64_t int_of(const graph::GraphStore& store, graph::NodeId v,
                    graph::PropKeyId key) {
  const auto pv = store.property_snapshot(v, key);
  const auto* i = std::get_if<std::int64_t>(&pv);
  return i != nullptr ? *i : -1;
}

std::string string_of(const graph::GraphStore& store, graph::NodeId v,
                      graph::PropKeyId key) {
  const auto pv = store.property_snapshot(v, key);
  const auto* s = std::get_if<std::string>(&pv);
  return s != nullptr ? *s : std::string{};
}

/// The Fig. 4a query as the benchmark issues it: two LOG anchors, their
/// causal graph's LOG events in causal order, aggregated.
std::string fig4a_text(std::int64_t a, std::int64_t b) {
  return "MATCH (a:LOG {eventId: " + std::to_string(a) +
         "}), (b:LOG {eventId: " + std::to_string(b) +
         "}) CALL horus.getCausalGraph(a, b, TRUE) YIELD node "
         "WITH node ORDER BY node.lamportLogicalTime ASC "
         "RETURN count(node) AS logs, collect(node.lamportLogicalTime) AS "
         "times";
}

/// A projection whose every item aggregates yields one row, over no input
/// rows too (count() is then 0).
void expect_count(const query::QueryResult& r, std::size_t want,
                  const std::string& what) {
  ASSERT_EQ(r.rows.size(), 1u) << what;
  EXPECT_EQ(r.rows[0][0].as_int(), static_cast<std::int64_t>(want)) << what;
}

void check_graph(const Horus& h, const std::string& tag) {
  const graph::GraphStore& store = h.graph().store();
  const ExecutionGraphKeys& keys = h.graph().keys();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  ASSERT_GT(n, 0u) << tag;
  std::vector<graph::NodeId> logs;
  std::map<std::string, std::size_t> host_logs;
  std::int64_t top = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    top = std::max(top, int_of(store, v, keys.lamport));
    if (store.node_label(v) != "LOG") continue;
    logs.push_back(v);
    ++host_logs[string_of(store, v, keys.host)];
  }
  ASSERT_GE(logs.size(), 2u) << tag;
  const Engines engines = engines_for(h);

  // Fig. 4a: the LOG events of the reachability cut between two LOG
  // anchors, counted, and their Lamport times in ascending order.
  const CausalQueryEngine q2 = h.query();
  std::size_t related = 0;
  for (std::size_t i = 0; i < logs.size() && related < 6; i += 3) {
    const graph::NodeId a = logs[i];
    const graph::NodeId b = logs[std::min(
        logs.size() - 1, i + std::max<std::size_t>(1, logs.size() / 3))];
    ASSERT_TRUE(MatchesReachabilityCut(
        store, q2.get_causal_graph(a, b, /*only_logs=*/true), a, b,
        /*only_logs=*/true))
        << tag;
    graph::SubgraphResult cut = graph::between_subgraph(store, a, b);
    std::erase_if(cut.nodes, [&](graph::NodeId v) {
      return v != a && v != b && store.node_label(v) != "LOG";
    });
    std::vector<std::int64_t> times;
    for (const graph::NodeId v : cut.nodes) {
      times.push_back(int_of(store, v, keys.lamport));
    }
    std::sort(times.begin(), times.end());
    if (!times.empty()) ++related;
    const std::string text = fig4a_text(int_of(store, a, keys.event_id),
                                        int_of(store, b, keys.event_id));
    for (const auto& [name, engine] : engines.all) {
      const query::QueryResult r = engine.run(text);
      const std::string what = tag + "/" + name + ": " + text;
      ASSERT_EQ(r.columns, (std::vector<std::string>{"logs", "times"})) << what;
      expect_count(r, times.size(), what);
      std::vector<std::int64_t> got;
      for (const query::Value& t : r.rows[0][1].as_list()) {
        got.push_back(t.as_int());
      }
      EXPECT_EQ(got, times) << what;
    }
  }
  EXPECT_GT(related, 0u) << tag << ": no anchor pair is causally related";

  // Host counts: LOG events per host, and one never stored.
  host_logs.emplace("no-such-host", 0);
  for (const auto& [host, want] : host_logs) {
    const std::string text =
        "MATCH (n:LOG {host: '" + host + "'}) RETURN count(*) AS logs";
    for (const auto& [name, engine] : engines.all) {
      expect_count(engine.run(text), want, tag + "/" + name + ": " + text);
    }
  }

  // Lamport windows: the event ids in [lo, lo + 4), by id and counted, and
  // the window's Lamport times through WITH ... ORDER BY and collect().
  const std::int64_t step = std::max<std::int64_t>(1, top / 5);
  for (std::int64_t lo = 1; lo <= top; lo += step) {
    std::vector<std::int64_t> ids;
    std::vector<std::int64_t> times;
    for (graph::NodeId v = 0; v < n; ++v) {
      const std::int64_t t = int_of(store, v, keys.lamport);
      if (t < lo || t >= lo + 4) continue;
      ids.push_back(int_of(store, v, keys.event_id));
      times.push_back(t);
    }
    std::sort(ids.begin(), ids.end());
    std::sort(times.begin(), times.end());
    const std::string window = "MATCH (n) WHERE n.lamportLogicalTime >= " +
                               std::to_string(lo) +
                               " AND n.lamportLogicalTime < " +
                               std::to_string(lo + 4);
    const std::string by_id = window + " RETURN n.eventId AS id ORDER BY id";
    const std::string counted = window + " RETURN count(*) AS c";
    const std::string ordered =
        window +
        " WITH n ORDER BY n.lamportLogicalTime DESC "
        "RETURN collect(n.lamportLogicalTime) AS times";
    for (const auto& [name, engine] : engines.all) {
      const std::string what = tag + "/" + name + ": ";
      const query::QueryResult r = engine.run(by_id);
      std::vector<std::int64_t> got;
      for (const auto& row : r.rows) got.push_back(row[0].as_int());
      EXPECT_EQ(got, ids) << what << by_id;
      expect_count(engine.run(counted), ids.size(), what + counted);
      const query::QueryResult o = engine.run(ordered);
      ASSERT_EQ(o.rows.size(), 1u) << what << ordered;
      got.clear();
      for (const query::Value& t : o.rows[0][0].as_list()) {
        got.push_back(t.as_int());
      }
      std::reverse(got.begin(), got.end());
      EXPECT_EQ(got, times) << what << ordered;
    }
  }
}

std::unique_ptr<Horus> build(const gen::TopologyOptions& topology) {
  auto h = std::make_unique<Horus>();
  for (const Event& e : gen::microservice_topology(topology)) h->ingest(e);
  h->seal();
  return h;
}

TEST(QueryTailOracleTest, BaselineTopology) {
  gen::TopologyOptions topology;
  topology.num_services = 5;
  topology.depth = 2;
  topology.requests = 8;
  check_graph(*build(topology), "baseline");
}

TEST(QueryTailOracleTest, ChaosTopologies) {
  for (const gen::ChaosScenario& scenario :
       gen::builtin_chaos_scenarios(/*seed=*/31)) {
    gen::TopologyOptions topology = scenario.topology;
    topology.requests = std::min<std::size_t>(topology.requests, 6);
    check_graph(*build(topology), "chaos-" + scenario.name);
  }
}

}  // namespace
}  // namespace horus
