// MATCH/WHERE scan throughput across graph sizes — the measurement behind
// DESIGN.md §12: selective predicates become index/range scans, and
// unselective ones a batch filter over copied columns.
//
// Hand-rolled main: every query runs once per size (best of 3), and its
// row count — for a count(*) query, the count — is checked against a count
// over the stored values of the keys it reads; a mismatch fails the run.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "bench_main.h"
#include "bench_util.h"
#include "query/evaluator.h"

namespace {

using namespace horus;

struct Timing {
  double ms = 0.0;
  std::size_t rows = 0;  // result rows, or the count of a count(*) query
};

Timing time_query(const ExecutionGraph& graph, const std::string& text,
                  bool counted) {
  QueryOptions options;
  options.threads = 1;
  const query::QueryEngine engine(graph, options);
  Timing best{1e300, 0};
  for (int i = 0; i < 3; ++i) {
    const auto start = bench::BenchClock::now();
    const auto result = engine.run(text);
    const double ms = bench::ms_since(start);
    if (ms < best.ms) best.ms = ms;
    best.rows = counted ? static_cast<std::size_t>(result.rows[0][0].as_int())
                        : result.rows.size();
  }
  return best;
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

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv);
  const bool quick = bench::flag_present(argc, argv, "--quick");

  std::vector<std::size_t> sizes{100'000};
  if (!quick) {
    sizes.push_back(1'000'000);
    sizes.push_back(4'000'000);
  }

  int status = 0;
  for (const std::size_t size : sizes) {
    Horus& horus = bench::synthetic_horus(size);
    const ExecutionGraph& graph = horus.graph();
    const auto& store = graph.store();

    // Parameterize the selective queries with values that actually occur,
    // read off a mid-graph node.
    const graph::NodeId probe = store.node_count() / 2;
    const std::int64_t event_id =
        int_property(store, probe, graph.keys().event_id);
    const std::int64_t lamport =
        int_property(store, probe, graph.keys().lamport);
    const std::string host = string_property(store, probe, graph.keys().host);

    struct Spec {
      const char* name;
      std::string text;
      bool selective;
      bool counted;  // RETURN count(*): one row holding the count
      std::function<bool(graph::NodeId)> keeps;
    };
    const auto& keys = graph.keys();
    const std::vector<Spec> specs{
        {"eq_eventId",
         "MATCH (e) WHERE e.eventId = " + std::to_string(event_id) +
             " RETURN e.eventId",
         true, false,
         [&](graph::NodeId v) {
           return int_property(store, v, keys.event_id) == event_id;
         }},
        {"range_lamport",
         "MATCH (e) WHERE e.lamportLogicalTime >= " +
             std::to_string(lamport) + " AND e.lamportLogicalTime < " +
             std::to_string(lamport + 100) + " RETURN e.lamportLogicalTime",
         true, false,
         [&](graph::NodeId v) {
           const std::int64_t t = int_property(store, v, keys.lamport);
           return t >= lamport && t < lamport + 100;
         }},
        {"host_eq_count",
         "MATCH (e) WHERE e.host = \"" + host + "\" RETURN count(*)", false,
         true,
         [&](graph::NodeId v) {
           return string_property(store, v, keys.host) == host;
         }},
        {"unselective_inplace",
         "MATCH (e) WHERE e.host <> \"no-such-host\" AND "
         "e.lamportLogicalTime > 0 RETURN count(*)",
         false, true,
         [&](graph::NodeId v) {
           const auto& h = store.property(v, keys.host);
           return std::holds_alternative<std::string>(h) &&
                  std::get<std::string>(h) != "no-such-host" &&
                  int_property(store, v, keys.lamport) > 0;
         }},
    };

    const auto nodes = static_cast<graph::NodeId>(store.node_count());
    for (const Spec& spec : specs) {
      std::size_t want = 0;
      for (graph::NodeId v = 0; v < nodes; ++v) want += spec.keeps(v) ? 1 : 0;
      const Timing t = time_query(graph, spec.text, spec.counted);
      if (t.rows != want) {
        std::fprintf(stderr,
                     "MISMATCH %s/%zu: %zu rows, the stored values hold "
                     "%zu\n",
                     spec.name, size, t.rows, want);
        status = 1;
      }
      std::printf("%-22s %9zu nodes  %10.3f ms  (%zu rows)%s\n", spec.name,
                  size, t.ms, t.rows, spec.selective ? "  [selective]" : "");
      Json row = Json::object();
      row["name"] = std::string(spec.name) + "/" + std::to_string(size);
      row["query"] = spec.text;
      row["nodes"] = static_cast<std::int64_t>(size);
      row["selective"] = spec.selective;
      row["real_time_ms"] = t.ms;
      row["rows"] = static_cast<std::int64_t>(t.rows);
      report.add_row(std::move(row));
    }
  }

  if (!report.write("bench_query_scan")) return 1;
  return status;
}
