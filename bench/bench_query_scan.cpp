// MATCH/WHERE scan throughput with the query planner on vs off, across
// graph sizes — the paired measurement behind DESIGN.md §12: the planner
// must win on selective predicates (index/range scans replace the full
// scan) and at worst tie on unselective ones (batch filtering replaces
// per-row Value allocation).
//
// Hand-rolled main: every query runs twice per size (planner on / planner
// off) and both rows land in the JSON, tagged "planner": "on"|"off".
// bench/run_all.sh fails the run if either tag is missing from
// BENCH_query_scan.json.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
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
  std::size_t rows = 0;
};

Timing time_query(const ExecutionGraph& graph, const std::string& text,
                  bool planner) {
  QueryOptions options;
  options.threads = 1;
  options.use_planner = planner;
  const query::QueryEngine engine(graph, options);
  Timing best{1e300, 0};
  for (int i = 0; i < 3; ++i) {
    const auto start = bench::BenchClock::now();
    const auto result = engine.run(text);
    const double ms = bench::ms_since(start);
    if (ms < best.ms) best.ms = ms;
    best.rows = result.rows.size();
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
    };
    const std::vector<Spec> specs{
        {"eq_eventId",
         "MATCH (e) WHERE e.eventId = " + std::to_string(event_id) +
             " RETURN e.eventId",
         true},
        {"range_lamport",
         "MATCH (e) WHERE e.lamportLogicalTime >= " +
             std::to_string(lamport) + " AND e.lamportLogicalTime < " +
             std::to_string(lamport + 100) + " RETURN e.lamportLogicalTime",
         true},
        {"host_eq_count",
         "MATCH (e) WHERE e.host = \"" + host + "\" RETURN count(*)", false},
        {"unselective_inplace",
         "MATCH (e) WHERE e.host <> \"no-such-host\" AND "
         "e.lamportLogicalTime > 0 RETURN count(*)",
         false},
    };

    for (const Spec& spec : specs) {
      const Timing off = time_query(graph, spec.text, /*planner=*/false);
      const Timing on = time_query(graph, spec.text, /*planner=*/true);
      const double speedup = on.ms > 0 ? off.ms / on.ms : 0.0;
      if (on.rows != off.rows) {
        std::fprintf(stderr,
                     "MISMATCH %s/%zu: planner-on %zu rows, planner-off %zu "
                     "rows\n",
                     spec.name, size, on.rows, off.rows);
        status = 1;
      }
      std::printf("%-22s %9zu nodes  off %10.3f ms  on %10.3f ms  %6.1fx  "
                  "(%zu rows)%s\n",
                  spec.name, size, off.ms, on.ms, speedup, on.rows,
                  spec.selective ? "  [selective]" : "");
      for (const bool planner : {false, true}) {
        const Timing& t = planner ? on : off;
        Json row = Json::object();
        row["name"] = std::string(spec.name) + "/" + std::to_string(size) +
                      "/planner=" + (planner ? "on" : "off");
        row["query"] = spec.text;
        row["nodes"] = static_cast<std::int64_t>(size);
        row["planner"] = planner ? "on" : "off";
        row["selective"] = spec.selective;
        row["real_time_ms"] = t.ms;
        row["rows"] = static_cast<std::int64_t>(t.rows);
        if (planner) row["speedup_vs_legacy"] = speedup;
        report.add_row(std::move(row));
      }
    }
  }

  if (!report.write("bench_query_scan")) return 1;
  return status;
}
